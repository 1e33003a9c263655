//! The streaming runtime: stateful per-timestep execution of a compiled plan,
//! generic over a numeric [`Backend`].
//!
//! A [`Session`] holds, for every layer of a [`Plan`], exactly the state a
//! causal network needs to continue from where it stopped:
//!
//! * each convolution keeps a **ring buffer of its receptive field** — one
//!   new timestep then costs `O(C_out · C_in · alive_taps)` instead of
//!   re-running the whole window (`O(T)` columns) through a tape;
//! * each pooling stage keeps its window and phase, so strided pooling
//!   naturally gates how often deeper layers (and the head) advance;
//! * the head keeps its flatten window (TEMPONet-style `Fc`) or running mean
//!   (`GlobalPoolFc`).
//!
//! The block/head walk, the emission gating, the state layout and the
//! scratch sizing are written once here; a backend supplies only the
//! arithmetic — the ring element, the seam conversion of an f32 activation
//! into that element, the gather of a ring into a kernel row, and the
//! per-step (`matvec`) and per-wave (`matmul`) kernels. [`F32`] is the
//! reference backend; [`crate::quant::I8`] runs the same plans in int8.
//!
//! Feeding a fresh f32 session the samples `x[0..T]` one at a time
//! reproduces the offline forward on `[1, C, T]` (zero initial state ≡ causal
//! zero padding); the parity tests in `tests/parity.rs` pin this to `1e-5`.
//!
//! The per-step hot path is allocation-free: scratch buffers are owned by the
//! session and reused ([`Session::push_into`]); [`Session::push`] is the
//! allocating convenience wrapper.

use crate::plan::{CompiledConv, Dense, Plan, PlanBlock, PlanHead, PoolSpec};
use pit_tensor::kernels::gemm;
use std::fmt::Debug;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Backend interface
// ---------------------------------------------------------------------------

/// The numeric half of the streaming runtime. A backend names its layer
/// types; everything else — plan walks, emission schedule, stream state,
/// pooling of streams into waves — is shared by every backend.
pub trait Backend: Clone + Debug + Send + Sync + 'static {
    /// Element of the ring buffers and kernel rows (`f32`, or the `i8`
    /// codes of a layer seam).
    type Elem: Copy + Default + Debug + Send + Sync + Into<f32> + 'static;
    /// Convolution layer.
    type Conv: ConvKernel<Self::Elem>;
    /// Dense layer.
    type Dense: DenseKernel<Self::Elem>;
    /// Average-pooling stage.
    type Pool: PoolKernel<Self::Elem>;
    /// Slack allocated past every conv ring and kernel-row buffer, so a
    /// gather may copy fixed-width blocks.
    const PAD: usize;
}

/// Geometry of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Stored (alive) taps.
    pub k: usize,
    /// Dilation between stored taps.
    pub dilation: usize,
}

impl ConvShape {
    /// Receptive field in input samples, `(K − 1) · d + 1`: the ring length.
    pub fn receptive_field(&self) -> usize {
        (self.k - 1) * self.dilation + 1
    }
}

/// A layer input seam: how one f32 activation enters the backend's element.
pub trait Seam<E> {
    /// Converts one f32 activation at the layer's input.
    fn seam(&self, v: f32) -> E;
}

/// The two matrix kernels of a conv or dense layer over rows of `kd` seam
/// elements (`kd = C_in · K` or the dense input width). Both write the f32
/// layer output — bias added, ReLU applied when `relu` — and may use `acc`
/// (at least one output row per stream) as integer accumulator scratch.
pub trait Kernel<E>: Seam<E> + Clone + Debug + Send + Sync {
    /// One stream, one step: `out = x · W + b`.
    fn matvec(&self, x: &[E], acc: &mut [i32], out: &mut [f32], relu: bool);
    /// One wave of `n` streams: `out[n, ·] = rows[n, kd] · W + b`.
    fn matmul(&self, n: usize, rows: &[E], acc: &mut [i32], out: &mut [f32], relu: bool);
}

/// A convolution of a backend: its geometry and its ring gather.
pub trait ConvKernel<E>: Kernel<E> {
    /// Channels, taps and dilation.
    fn shape(&self) -> ConvShape;
    /// Gathers the current tap window of `ring` into `row` in the order the
    /// layer's weight pack expects. `row` may be written up to
    /// [`Backend::PAD`] elements past `C_in · K`.
    fn gather(&self, ring: &Ring<E>, row: &mut [E]);
}

/// A dense layer of a backend.
pub trait DenseKernel<E>: Kernel<E> {
    /// `(in_features, out_features)`.
    fn features(&self) -> (usize, usize);
}

/// An average-pooling stage of a backend.
pub trait PoolKernel<E>: Seam<E> + Clone + Debug + Send + Sync {
    /// Pooling geometry.
    fn spec(&self) -> PoolSpec;
    /// Factor that turns the sum of the window's elements into its mean.
    fn mean_scale(&self) -> f32;
}

// ---------------------------------------------------------------------------
// Stream state
// ---------------------------------------------------------------------------

/// One convolution's receptive field of input history, time-major
/// (`[rf, C_in]`, one contiguous column per row): a push is one unit-stride
/// seam pass and a gather reads whole columns.
#[derive(Debug, Clone)]
pub struct Ring<E> {
    /// The ring rows plus the backend's [`Backend::PAD`] slack.
    pub(crate) hist: Vec<E>,
    pub(crate) c_in: usize,
    pub(crate) rf: usize,
    /// Next write row.
    pub(crate) pos: usize,
}

impl<E: Copy + Default> Ring<E> {
    fn new(shape: ConvShape, pad: usize) -> Self {
        let rf = shape.receptive_field();
        Self {
            hist: vec![E::default(); shape.c_in * rf + pad],
            c_in: shape.c_in,
            rf,
            pos: 0,
        }
    }

    fn reset(&mut self) {
        self.hist.fill(E::default());
        self.pos = 0;
    }

    /// Converts one input column at the layer seam straight into the ring.
    pub(crate) fn push(&mut self, input: &[f32], seam: impl Fn(f32) -> E) {
        let base = self.pos * self.c_in;
        for (h, &v) in self.hist[base..base + self.c_in].iter_mut().zip(input) {
            *h = seam(v);
        }
        self.pos += 1;
        if self.pos == self.rf {
            self.pos = 0;
        }
    }

    /// Ring row of the sample `shift` steps before the newest one. Tap
    /// shifts never exceed `rf − 1`, so one conditional wrap replaces any
    /// modulo arithmetic.
    pub(crate) fn row_of(&self, shift: usize) -> usize {
        let newest = if self.pos == 0 {
            self.rf - 1
        } else {
            self.pos - 1
        };
        if newest >= shift {
            newest - shift
        } else {
            newest + self.rf - shift
        }
    }
}

/// Emission schedule of a strided pooling stage, counter-based: no modulo on
/// the step path.
///
/// Plan construction guarantees `kernel ≥ 1` and `stride ≥ 1` (see
/// [`crate::InferencePlan::new`]), which the countdown arithmetic relies on.
#[derive(Debug, Clone, Default)]
struct PoolClock {
    /// Next write slot (`seen mod kernel`, kept as a counter).
    slot: usize,
    /// Columns seen until the first full window (saturates at `kernel`).
    fill: usize,
    /// Steps remaining until the next emission once the window is full.
    countdown: usize,
}

impl PoolClock {
    /// Advances one step; returns the ring slot the incoming column must be
    /// written to and whether the stage emits this step — the offline grid
    /// `t_out = (t − kernel)/stride + 1` (first emission once the window
    /// fills, then every `stride` steps).
    fn tick(&mut self, spec: PoolSpec) -> (usize, bool) {
        let slot = self.slot;
        self.slot += 1;
        if self.slot == spec.kernel {
            self.slot = 0;
        }
        if self.fill < spec.kernel {
            self.fill += 1;
            if self.fill < spec.kernel {
                return (slot, false);
            }
            self.countdown = 1;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return (slot, false);
        }
        self.countdown = spec.stride;
        (slot, true)
    }
}

/// State of a strided average-pooling stage: a `[kernel, C]` window of seam
/// elements and its clock.
#[derive(Debug, Clone)]
struct PoolWindow<E> {
    buf: Vec<E>,
    clock: PoolClock,
}

impl<E: Copy + Default + Into<f32>> PoolWindow<E> {
    /// Pushes one column; returns `true` (with the pooled column in `out`)
    /// when the stage emits. Sums of at most `kernel` elements run in slot
    /// order, so solo and pooled streams stay bit-identical.
    fn step<P: PoolKernel<E>>(&mut self, pool: &P, input: &[f32], out: &mut [f32]) -> bool {
        let c = input.len();
        let (slot, emits) = self.clock.tick(pool.spec());
        for (q, &v) in self.buf[slot * c..(slot + 1) * c].iter_mut().zip(input) {
            *q = pool.seam(v);
        }
        if !emits {
            return false;
        }
        let out = &mut out[..c];
        out.fill(0.0);
        for row in self.buf.chunks_exact(c) {
            for (o, &q) in out.iter_mut().zip(row) {
                *o += q.into();
            }
        }
        let scale = pool.mean_scale();
        for o in out.iter_mut() {
            *o *= scale;
        }
        true
    }
}

/// Head state beyond the conv rings.
#[derive(Debug, Clone)]
enum HeadState<E> {
    /// Per-step conv head: its ring is the last entry of `StreamState::rings`.
    PerStep,
    /// `[channels, window]` flatten ring at the hidden layer's seam; `pos` is
    /// the next (oldest) slot. Unwritten slots are zero, matching the causal
    /// pad.
    Fc { buf: Vec<E>, pos: usize },
    /// f32 running sum over time per channel.
    GlobalPool { sum: Vec<f32>, count: usize },
}

/// Everything one stream carries between steps.
#[derive(Debug, Clone)]
pub(crate) struct StreamState<E> {
    /// One ring per convolution, in plan order ([`Plan::convs`]).
    rings: Vec<Ring<E>>,
    /// One window per pooling stage, in plan order.
    pools: Vec<PoolWindow<E>>,
    head: HeadState<E>,
}

impl<E: Copy + Default + Into<f32>> StreamState<E> {
    pub(crate) fn new<B: Backend<Elem = E>>(plan: &Plan<B>) -> Self {
        let rings = plan
            .convs()
            .into_iter()
            .map(|c| Ring::new(c.shape(), B::PAD))
            .collect();
        let pools = plan
            .pool_windows()
            .into_iter()
            .map(|(spec, channels)| PoolWindow {
                buf: vec![E::default(); spec.kernel * channels],
                clock: PoolClock::default(),
            })
            .collect();
        let head = match &plan.head {
            PlanHead::PerStep(_) => HeadState::PerStep,
            PlanHead::Fc {
                channels, window, ..
            } => HeadState::Fc {
                buf: vec![E::default(); channels * window],
                pos: 0,
            },
            PlanHead::GlobalPoolFc(dense) => HeadState::GlobalPool {
                sum: vec![0.0; dense.features().0],
                count: 0,
            },
        };
        Self { rings, pools, head }
    }

    pub(crate) fn ring(&mut self, i: usize) -> &mut Ring<E> {
        &mut self.rings[i]
    }

    /// Steps pooling stage `i`; see [`PoolWindow::step`].
    pub(crate) fn pool_step<P: PoolKernel<E>>(
        &mut self,
        i: usize,
        pool: &P,
        input: &[f32],
        out: &mut [f32],
    ) -> bool {
        self.pools[i].step(pool, input, out)
    }

    /// The Fc head's flatten window and its next slot.
    pub(crate) fn fc_window(&mut self) -> (&mut [E], &mut usize) {
        match &mut self.head {
            HeadState::Fc { buf, pos } => (buf, pos),
            _ => unreachable!("fc head state missing"),
        }
    }

    /// The global-pool head's running sum and step count.
    pub(crate) fn running_sum(&mut self) -> (&mut [f32], &mut usize) {
        match &mut self.head {
            HeadState::GlobalPool { sum, count } => (sum, count),
            _ => unreachable!("global-pool head state missing"),
        }
    }

    pub(crate) fn reset(&mut self) {
        for r in &mut self.rings {
            r.reset();
        }
        for p in &mut self.pools {
            p.buf.fill(E::default());
            p.clock = PoolClock::default();
        }
        match &mut self.head {
            HeadState::PerStep => {}
            HeadState::Fc { buf, pos } => {
                buf.fill(E::default());
                *pos = 0;
            }
            HeadState::GlobalPool { sum, count } => {
                sum.fill(0.0);
                *count = 0;
            }
        }
    }
}

impl<B: Backend> Plan<B> {
    /// Bytes one streaming [`Session`] (or one [`crate::SessionPool`] slot)
    /// keeps as state: conv rings with their copy slack, pooling windows and
    /// the Fc flatten window in the backend's element; the global-pool
    /// running mean in f32. This is the per-stream serving memory footprint.
    pub fn session_state_bytes(&self) -> usize {
        let elem = std::mem::size_of::<B::Elem>();
        let rings: usize = self
            .convs()
            .into_iter()
            .map(|c| {
                let s = c.shape();
                s.c_in * s.receptive_field() + B::PAD
            })
            .sum();
        let pools: usize = self
            .pool_windows()
            .into_iter()
            .map(|(spec, channels)| spec.kernel * channels)
            .sum();
        let head = match &self.head {
            PlanHead::PerStep(_) => 0,
            PlanHead::Fc {
                channels, window, ..
            } => channels * window * elem,
            PlanHead::GlobalPoolFc(dense) => dense.features().0 * std::mem::size_of::<f32>(),
        };
        (rings + pools) * elem + head
    }

    /// Every pooling stage in plan order with the channel count it pools.
    fn pool_windows(&self) -> Vec<(PoolSpec, usize)> {
        let mut width = self.input_channels;
        let mut out = Vec::new();
        for block in &self.blocks {
            match block {
                PlanBlock::Residual { conv2, .. } => width = conv2.shape().c_out,
                PlanBlock::Plain { convs, pool } => {
                    width = convs.last().map_or(width, |c| c.shape().c_out);
                    if let Some(p) = pool {
                        out.push((p.spec(), width));
                    }
                }
            }
        }
        out
    }

    /// Per-stream scratch widths: the widest f32 column any layer reads or
    /// writes (the Fc hidden activations included), and the widest kernel
    /// row (conv gather rows and dense inputs).
    fn scratch_widths(&self) -> Widths {
        let mut col = self.input_channels.max(self.output_dim());
        let mut row = 1;
        for c in self.convs() {
            let s = c.shape();
            col = col.max(s.c_in).max(s.c_out);
            row = row.max(s.c_in * s.k);
        }
        match &self.head {
            PlanHead::PerStep(_) => {}
            PlanHead::Fc { hidden, .. } => {
                let (in_f, hid_f) = hidden.features();
                col = col.max(hid_f);
                row = row.max(in_f).max(hid_f);
            }
            PlanHead::GlobalPoolFc(dense) => row = row.max(dense.features().0),
        }
        Widths { col, row }
    }
}

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

/// Per-stream scratch widths of a plan.
#[derive(Debug, Clone, Copy)]
struct Widths {
    col: usize,
    row: usize,
}

/// Column, kernel-row and accumulator scratch for up to `n` streams at once
/// — one stream for a [`Session`], the pool size for a
/// [`crate::SessionPool`].
#[derive(Debug, Clone)]
pub(crate) struct Scratch<E> {
    widths: Widths,
    pad: usize,
    /// Ping-pong column buffers `[n, col]`.
    pub(crate) cur: Vec<f32>,
    pub(crate) nxt: Vec<f32>,
    /// Residual skip columns `[n, col]`.
    pub(crate) skip: Vec<f32>,
    /// Kernel rows `[n, row]` plus the backend's slack.
    pub(crate) rows: Vec<E>,
    /// Integer accumulators `[n, col]`.
    pub(crate) acc: Vec<i32>,
}

impl<E: Copy + Default> Scratch<E> {
    pub(crate) fn new<B: Backend<Elem = E>>(plan: &Plan<B>, n: usize) -> Self {
        let mut s = Self {
            widths: plan.scratch_widths(),
            pad: B::PAD,
            cur: Vec::new(),
            nxt: Vec::new(),
            skip: Vec::new(),
            rows: Vec::new(),
            acc: Vec::new(),
        };
        s.resize(n);
        s
    }

    /// Sizes every buffer for `n` streams.
    pub(crate) fn resize(&mut self, n: usize) {
        let Widths { col, row } = self.widths;
        self.cur.resize(n * col, 0.0);
        self.nxt.resize(n * col, 0.0);
        self.skip.resize(n * col, 0.0);
        self.rows.resize(n * row + self.pad, E::default());
        self.acc.resize(n * col, 0);
    }
}

// ---------------------------------------------------------------------------
// Solo per-step walk
// ---------------------------------------------------------------------------

/// One stream's stateful execution of a compiled plan.
///
/// Feed samples with [`Session::push`]/[`Session::push_into`]; the session
/// emits an output whenever the head advances (every step for per-step and
/// un-pooled heads, every `Π strideᵢ` steps behind strided pooling). The
/// solo walk is the oracle the batched [`crate::SessionPool`] is tested
/// against.
pub struct Session<B: Backend = F32> {
    plan: Arc<Plan<B>>,
    state: StreamState<B::Elem>,
    scratch: Scratch<B::Elem>,
}

impl<B: Backend> Session<B> {
    /// Creates a fresh (all-zero state) session for `plan`.
    pub fn new(plan: Arc<Plan<B>>) -> Self {
        Self {
            state: StreamState::new(&plan),
            scratch: Scratch::new(&plan, 1),
            plan,
        }
    }

    /// The plan this session executes.
    pub fn plan(&self) -> &Arc<Plan<B>> {
        &self.plan
    }

    /// Clears all stream state back to the zero (causal-padding) state.
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// Pushes one input sample (length `input_channels`); returns the head
    /// output when this step made it emit.
    pub fn push(&mut self, sample: &[f32]) -> Option<Vec<f32>> {
        let mut out = vec![0.0; self.plan.output_dim()];
        self.push_into(sample, &mut out).then_some(out)
    }

    /// Allocation-free variant of [`Session::push`]: writes the head output
    /// into `out` (length [`Plan::output_dim`]) and returns whether it
    /// emitted this step.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is shorter than the plan's input channels or `out`
    /// shorter than the output dimension.
    pub fn push_into(&mut self, sample: &[f32], out: &mut [f32]) -> bool {
        // Destructuring splits the borrows without touching the Arc's
        // reference count — an atomic pair per timestep is measurable at
        // sub-microsecond step times.
        let Self {
            plan,
            state,
            scratch,
        } = self;
        let plan: &Plan<B> = plan;
        let ic = plan.input_channels;
        assert!(
            sample.len() >= ic,
            "sample has {} channels, plan needs {ic}",
            sample.len()
        );
        assert!(
            out.len() >= plan.output_dim(),
            "output buffer has {} slots, plan emits {}",
            out.len(),
            plan.output_dim()
        );
        let Scratch {
            cur: a,
            nxt: b,
            skip,
            rows: row,
            acc,
            ..
        } = scratch;
        let rings = &mut state.rings;
        a[..ic].copy_from_slice(&sample[..ic]);
        let mut width = ic;
        let (mut ri, mut pi) = (0, 0);
        for block in &plan.blocks {
            match block {
                PlanBlock::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    skip[..width].copy_from_slice(&a[..width]);
                    let c1 = conv1.shape().c_out;
                    conv_step(conv1, &mut rings[ri], &a[..width], row, acc, b, true);
                    conv_step(conv2, &mut rings[ri + 1], &b[..c1], row, acc, a, true);
                    ri += 2;
                    match downsample {
                        Some(proj) => {
                            conv_step(proj, &mut rings[ri], &skip[..width], row, acc, b, false);
                            ri += 1;
                        }
                        None => b[..width].copy_from_slice(&skip[..width]),
                    }
                    width = conv2.shape().c_out;
                    for (x, y) in a[..width].iter_mut().zip(b.iter()) {
                        *x = (*x + y).max(0.0);
                    }
                }
                PlanBlock::Plain { convs, pool } => {
                    for conv in convs {
                        conv_step(conv, &mut rings[ri], &a[..width], row, acc, b, true);
                        ri += 1;
                        width = conv.shape().c_out;
                        std::mem::swap(a, b);
                    }
                    if let Some(p) = pool {
                        let emitted = state.pools[pi].step(p, &a[..width], &mut b[..width]);
                        pi += 1;
                        if !emitted {
                            return false;
                        }
                        std::mem::swap(a, b);
                    }
                }
            }
        }
        match (&plan.head, &mut state.head) {
            (PlanHead::PerStep(conv), HeadState::PerStep) => {
                conv_step(conv, &mut rings[ri], &a[..width], row, acc, out, false);
            }
            (
                PlanHead::Fc {
                    hidden,
                    output,
                    channels,
                    window,
                },
                HeadState::Fc { buf, pos },
            ) => {
                let (in_f, hid_f) = hidden.features();
                push_fc_window(buf, pos, *window, &a[..*channels], hidden);
                gather_fc_window(buf, *pos, *channels, *window, &mut row[..in_f]);
                hidden.matvec(&row[..in_f], acc, b, true);
                for (q, &v) in row[..hid_f].iter_mut().zip(b.iter()) {
                    *q = output.seam(v);
                }
                output.matvec(&row[..hid_f], acc, out, false);
            }
            (PlanHead::GlobalPoolFc(dense), HeadState::GlobalPool { sum, count }) => {
                let in_f = dense.features().0;
                accumulate_mean(sum, count, &a[..in_f], &mut row[..in_f], dense);
                dense.matvec(&row[..in_f], acc, out, false);
            }
            _ => unreachable!("head/state shape mismatch"),
        }
        true
    }
}

/// One solo conv step: seam push, gather, per-step kernel.
fn conv_step<E: Copy + Default, C: ConvKernel<E>>(
    conv: &C,
    ring: &mut Ring<E>,
    input: &[f32],
    row: &mut [E],
    acc: &mut [i32],
    out: &mut [f32],
    relu: bool,
) {
    let s = conv.shape();
    ring.push(&input[..s.c_in], |v| conv.seam(v));
    if s.k == 1 {
        // Single-tap convolution (rf = 1): the ring is the gathered row.
        conv.matvec(&ring.hist[..s.c_in], acc, out, relu);
    } else {
        conv.gather(ring, row);
        conv.matvec(&row[..s.c_in * s.k], acc, out, relu);
    }
}

/// Converts one column at the hidden seam into an Fc head window ring.
pub(crate) fn push_fc_window<E>(
    buf: &mut [E],
    pos: &mut usize,
    window: usize,
    input: &[f32],
    hidden: &impl Seam<E>,
) {
    for (ci, &v) in input.iter().enumerate() {
        buf[ci * window + *pos] = hidden.seam(v);
    }
    *pos = (*pos + 1) % window;
}

/// Gathers the flatten window of an Fc head into `feat` (`[channels ·
/// window]`, oldest step first — the offline flatten order): two contiguous
/// copies per channel.
pub(crate) fn gather_fc_window<E: Copy>(
    buf: &[E],
    pos: usize,
    channels: usize,
    window: usize,
    feat: &mut [E],
) {
    let head = window - pos;
    for ci in 0..channels {
        let base = ci * window;
        feat[base..base + head].copy_from_slice(&buf[base + pos..base + window]);
        feat[base + head..base + window].copy_from_slice(&buf[base..base + pos]);
    }
}

/// Adds one column to a global-pool running sum and writes the running mean,
/// converted at the dense seam, into `feat`.
pub(crate) fn accumulate_mean<E>(
    sum: &mut [f32],
    count: &mut usize,
    input: &[f32],
    feat: &mut [E],
    dense: &impl Seam<E>,
) {
    for (s, &v) in sum.iter_mut().zip(input) {
        *s += v;
    }
    *count += 1;
    let inv = 1.0 / *count as f32;
    for (f, &s) in feat.iter_mut().zip(sum.iter()) {
        *f = dense.seam(s * inv);
    }
}

fn relu_in_place(buf: &mut [f32]) {
    for v in buf {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

// ---------------------------------------------------------------------------
// The f32 backend
// ---------------------------------------------------------------------------

/// The f32 reference backend: f32 rings, serial per-step dot products,
/// [`pit_tensor::kernels::gemm`] per wave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct F32;

impl Backend for F32 {
    type Elem = f32;
    type Conv = CompiledConv;
    type Dense = Dense;
    type Pool = PoolSpec;
    const PAD: usize = 0;
}

/// Wave finisher shared by f32 conv and dense layers: bias-prefilled GEMM
/// over the `[kd, out]` pack, optional ReLU.
fn f32_matmul(
    w: &[f32],
    bias: &[f32],
    kd: usize,
    n: usize,
    rows: &[f32],
    out: &mut [f32],
    relu: bool,
) {
    let out_f = bias.len();
    for r in 0..n {
        out[r * out_f..(r + 1) * out_f].copy_from_slice(bias);
    }
    gemm(n, kd, out_f, rows, w, out);
    if relu {
        relu_in_place(&mut out[..n * out_f]);
    }
}

impl Seam<f32> for CompiledConv {
    fn seam(&self, v: f32) -> f32 {
        v
    }
}

impl Kernel<f32> for CompiledConv {
    fn matvec(&self, x: &[f32], _acc: &mut [i32], out: &mut [f32], relu: bool) {
        let ck = self.c_in * self.k;
        let w = self.weight.data();
        for (co, slot) in out.iter_mut().take(self.c_out).enumerate() {
            let mut acc = self.bias.data()[co];
            for (a, b) in w[co * ck..(co + 1) * ck].iter().zip(x) {
                acc += a * b;
            }
            *slot = acc;
        }
        if relu {
            relu_in_place(&mut out[..self.c_out]);
        }
    }

    fn matmul(&self, n: usize, rows: &[f32], _acc: &mut [i32], out: &mut [f32], relu: bool) {
        let ck = self.c_in * self.k;
        f32_matmul(&self.wt, self.bias.data(), ck, n, rows, out, relu);
    }
}

impl ConvKernel<f32> for CompiledConv {
    fn shape(&self) -> ConvShape {
        ConvShape {
            c_in: self.c_in,
            c_out: self.c_out,
            k: self.k,
            dilation: self.dilation,
        }
    }

    /// Channel-major rows (`[C_in, K]`, newest sample at tap 0), matching
    /// the `[C_out, C_in, K]` weights.
    fn gather(&self, ring: &Ring<f32>, row: &mut [f32]) {
        let (c_in, k) = (self.c_in, self.k);
        for kk in 0..k {
            let base = ring.row_of(kk * self.dilation) * c_in;
            for (ci, &v) in ring.hist[base..base + c_in].iter().enumerate() {
                row[ci * k + kk] = v;
            }
        }
    }
}

impl Seam<f32> for Dense {
    fn seam(&self, v: f32) -> f32 {
        v
    }
}

impl Kernel<f32> for Dense {
    /// Input-major over the `[in, out]` weights, so ReLU zeros skip whole
    /// rows.
    fn matvec(&self, x: &[f32], _acc: &mut [i32], out: &mut [f32], relu: bool) {
        let (nin, nout) = (self.in_features, self.out_features);
        out[..nout].copy_from_slice(self.bias.data());
        let w = self.weight.data();
        for (i, &xv) in x.iter().take(nin).enumerate() {
            if xv == 0.0 {
                continue;
            }
            for (o, wv) in out[..nout].iter_mut().zip(&w[i * nout..(i + 1) * nout]) {
                *o += xv * wv;
            }
        }
        if relu {
            relu_in_place(&mut out[..nout]);
        }
    }

    fn matmul(&self, n: usize, rows: &[f32], _acc: &mut [i32], out: &mut [f32], relu: bool) {
        let w = self.weight.data();
        f32_matmul(w, self.bias.data(), self.in_features, n, rows, out, relu);
    }
}

impl DenseKernel<f32> for Dense {
    fn features(&self) -> (usize, usize) {
        (self.in_features, self.out_features)
    }
}

impl Seam<f32> for PoolSpec {
    fn seam(&self, v: f32) -> f32 {
        v
    }
}

impl PoolKernel<f32> for PoolSpec {
    fn spec(&self) -> PoolSpec {
        *self
    }

    fn mean_scale(&self) -> f32 {
        1.0 / self.kernel as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_generic, compile_restcn, compile_temponet, InferencePlan};
    use crate::quant::QuantizedPlan;
    use pit_models::{
        GenericTcn, GenericTcnConfig, ResTcn, ResTcnConfig, TempoNet, TempoNetConfig,
    };
    use pit_nas::SearchableNetwork;
    use pit_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream_all<B: Backend>(session: &mut Session<B>, x: &Tensor) -> Vec<Vec<f32>> {
        let (c, t) = (x.dims()[1], x.dims()[2]);
        let mut sample = vec![0.0f32; c];
        let mut outputs = Vec::new();
        for tt in 0..t {
            for ci in 0..c {
                sample[ci] = x.data()[ci * t + tt];
            }
            if let Some(out) = session.push(&sample) {
                outputs.push(out);
            }
        }
        outputs
    }

    fn restcn_plan(seed: u64) -> InferencePlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ResTcnConfig {
            hidden_channels: 8,
            input_channels: 5,
            output_channels: 5,
            dropout: 0.0,
            ..ResTcnConfig::paper()
        };
        let net = ResTcn::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        compile_restcn(&net)
    }

    fn temponet_plan(seed: u64) -> InferencePlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        compile_temponet(&net)
    }

    #[test]
    fn streaming_restcn_matches_offline_per_step_outputs() {
        let plan = Arc::new(restcn_plan(10));
        let mut rng = StdRng::seed_from_u64(10);
        let x = init::uniform(&mut rng, &[1, 5, 40], 1.0);
        let offline = plan.forward(&x).unwrap();

        let mut session = Session::new(Arc::clone(&plan));
        let outputs = stream_all(&mut session, &x);
        assert_eq!(outputs.len(), 40);
        let c_out = plan.output_dim();
        for (tt, col) in outputs.iter().enumerate() {
            for co in 0..c_out {
                let want = offline.data()[co * 40 + tt];
                assert!(
                    (col[co] - want).abs() < 1e-5,
                    "t={tt} co={co}: {} vs {want}",
                    col[co]
                );
            }
        }
    }

    #[test]
    fn streaming_temponet_matches_offline_window_prediction() {
        let plan = Arc::new(temponet_plan(11));
        let mut rng = StdRng::seed_from_u64(11);
        let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
        let offline = plan.forward(&x).unwrap();

        let mut session = Session::new(Arc::clone(&plan));
        let outputs = stream_all(&mut session, &x);
        // Three stride-2 pools: the head advances every 8 samples.
        assert_eq!(outputs.len(), 64 / 8);
        let last = outputs.last().unwrap();
        assert!(
            (last[0] - offline.data()[0]).abs() < 1e-5,
            "{} vs {}",
            last[0],
            offline.data()[0]
        );
    }

    #[test]
    fn streaming_generic_running_mean_matches_offline_prefixes() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        net.set_dilations(&[2, 4]);
        let plan = Arc::new(compile_generic(&net));
        let x = init::uniform(&mut rng, &[1, 1, 24], 1.0);
        let mut session = Session::new(Arc::clone(&plan));
        let outputs = stream_all(&mut session, &x);
        assert_eq!(outputs.len(), 24);
        // Every step's output equals the offline forward of the prefix.
        for t in [1usize, 7, 24] {
            let prefix = Tensor::from_vec(x.data()[..t].to_vec(), &[1, 1, t]).unwrap();
            let offline = plan.forward(&prefix).unwrap();
            assert!(
                (outputs[t - 1][0] - offline.data()[0]).abs() < 1e-5,
                "prefix {t}"
            );
        }
    }

    #[test]
    fn reset_restores_the_zero_state() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        let plan = Arc::new(compile_generic(&net));
        let x = init::uniform(&mut rng, &[1, 1, 10], 1.0);
        let mut session = Session::new(Arc::clone(&plan));
        let first = stream_all(&mut session, &x);
        session.reset();
        let second = stream_all(&mut session, &x);
        assert_eq!(first, second);
    }

    #[test]
    fn push_into_is_equivalent_and_reports_emission() {
        let plan = Arc::new(temponet_plan(14));
        let mut a = Session::new(Arc::clone(&plan));
        let mut b = Session::new(Arc::clone(&plan));
        let mut out = vec![0.0f32; plan.output_dim()];
        let mut emitted = 0;
        for i in 0..32 {
            let sample = [i as f32 * 0.1, -0.2, 0.3, 0.05];
            let via_push = a.push(&sample);
            let did = b.push_into(&sample, &mut out);
            assert_eq!(via_push.is_some(), did);
            if let Some(v) = via_push {
                emitted += 1;
                assert_eq!(v, out);
            }
        }
        assert_eq!(emitted, 32 / 8);
    }

    /// Bytes the state buffers of a live session actually hold.
    fn held_bytes<B: Backend>(session: &Session<B>) -> usize {
        let elem = std::mem::size_of::<B::Elem>();
        let s = &session.state;
        let rings: usize = s.rings.iter().map(|r| r.hist.len()).sum();
        let pools: usize = s.pools.iter().map(|p| p.buf.len()).sum();
        let head = match &s.head {
            HeadState::PerStep => 0,
            HeadState::Fc { buf, .. } => buf.len() * elem,
            HeadState::GlobalPool { sum, .. } => sum.len() * std::mem::size_of::<f32>(),
        };
        (rings + pools) * elem + head
    }

    #[test]
    fn state_count_equals_the_bytes_the_state_holds() {
        let mut rng = StdRng::seed_from_u64(15);
        let generic = {
            let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
            net.set_dilations(&[2, 4]);
            compile_generic(&net)
        };
        let plans = [temponet_plan(15), restcn_plan(15), generic];
        for plan in plans {
            let c = plan.input_channels();
            let x = init::uniform(&mut rng, &[1, c, 64], 1.0);
            let qplan = QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).unwrap();
            let f32_bytes = plan.session_state_bytes();
            let i8_bytes = qplan.session_state_bytes();
            assert_eq!(f32_bytes, held_bytes(&Session::new(Arc::new(plan))));
            assert_eq!(i8_bytes, held_bytes(&Session::new(Arc::new(qplan))));
            assert!(i8_bytes < f32_bytes);
        }
    }
}
