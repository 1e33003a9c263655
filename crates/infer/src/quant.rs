//! Int8 quantized serving: calibrate → quantize → stream.
//!
//! This module is the deployment contract of the PIT story (Risso et al.,
//! DAC 2021 target int8 execution on GAP8-class edge devices): it lowers a
//! compiled f32 [`InferencePlan`] into an int8 [`QuantizedPlan`] and streams
//! it through the shared runtime of [`crate::stream`] on the [`I8`] backend —
//! identical emission schedule, `i8` ring buffers (~3.5x smaller per-stream
//! state) and exact `i8×i8→i32` arithmetic (input-major accumulation per
//! step, [`pit_tensor::kernels::gemm_i8`] per batched wave). Integer
//! accumulators carry no ordering constraint, so the hot loops vectorize
//! where the f32 backend's serial dot products cannot — that, not just the
//! 4x data width, is where the step-time win comes from.
//!
//! **Scheme.** Weights are quantized symmetrically *per output channel*
//! ([`pit_hw::quant::quantize_per_channel`]); activations are quantized *per
//! layer seam* with one scale from a max-abs calibration pass
//! ([`Calibration::collect`] drives [`InferencePlan::forward_seams`]).
//! Execution keeps f32 columns *between* layers: each layer quantizes its
//! input column at the seam, accumulates exactly in `i32`, and dequantizes
//! through `in_scale · w_scale[co]` plus the f32 bias (batch norm was already
//! folded by the f32 compile). Biases, pooling windows and the global-pool
//! running mean stay f32 — they are tiny next to the conv rings.
//!
//! **Parity bound.** Integer accumulation is exact, so the only error
//! sources are the rounding at the seams (≤ `in_scale/2` per element, also
//! valid under saturation for inputs inside the calibrated range) and the
//! weight rounding (`Σ|ŵ−w|` per output channel, known exactly after
//! quantization). [`QuantizedPlan::error_bound`] composes these through the
//! network — `Σ|ŵ|` is each layer's Lipschitz factor, ReLU and average
//! pooling are 1-Lipschitz, residual branches add — into an analytic bound
//! on `|quantized − f32|` per output, **valid for any input whose seam
//! activations stay inside the calibrated ranges** (in particular, for the
//! calibration inputs themselves). The property tests in
//! `tests/quant_parity.rs` hold the streamed int8 outputs to this bound.

use crate::plan::{CompiledConv, Dense, InferencePlan, Plan, PlanBlock, PlanHead, PoolSpec};
use crate::session::SessionPool;
use crate::stream::{
    Backend, ConvKernel, ConvShape, DenseKernel, Kernel, PoolKernel, Ring, Seam, Session,
};
use pit_hw::quant::{quantize_per_channel, quantize_value_inv, symmetric_scale, MaxAbsObserver};
use pit_tensor::kernels::gemm_i8;
use pit_tensor::{Result, Tensor};

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

/// Max-abs activation ranges, one per quantization seam of a plan (the seam
/// order of [`InferencePlan::forward_seams`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    max_abs: Vec<f32>,
}

impl Calibration {
    /// Runs every calibration window through the f32 plan and records the
    /// max-abs activation at each quantization seam.
    ///
    /// The resulting [`QuantizedPlan::error_bound`] is sound for inputs
    /// whose seam activations stay inside these ranges — calibrate on data
    /// drawn from the serving distribution (or, for a parity check, on the
    /// exact windows being compared).
    ///
    /// # Errors
    ///
    /// Returns an error when no calibration windows are given (all-zero
    /// ranges would quantize every activation onto the `{-1, 0, 1}` codes —
    /// a silently destroyed model), or when a window does not match the
    /// plan's input shape.
    pub fn collect(plan: &InferencePlan, windows: &[Tensor]) -> Result<Self> {
        if windows.is_empty() {
            return Err(pit_tensor::TensorError::InvalidArgument {
                op: "calibrate",
                message: "calibration needs at least one window".into(),
            });
        }
        let mut observers = vec![MaxAbsObserver::new(); plan.num_seams()];
        // An Fc head emits on *every* streamed step from a zero-padded
        // flatten ring, so its hidden activations are not offline
        // activations: a mid-fill window can excite a hidden unit far beyond
        // anything the aligned full-window forward produces (cancelling
        // terms drop out with the padding). Capture the pooled feature map
        // at the flatten seam and walk every ring position the stream will
        // see, folding those hidden activations into the output seam's
        // range — without this the error bound is unsound before (and
        // between) window-aligned emissions. Every other seam is covered by
        // streaming ≡ offline parity of the conv/pool stack (zero state ≡
        // causal pad) or, for the global-pool head, by the pre-pool
        // observation dominating every prefix mean.
        let fc_flat_seam = match plan.head() {
            PlanHead::Fc { .. } => Some(plan.num_seams() - 2),
            _ => None,
        };
        let mut pooled_maps: Vec<Tensor> = Vec::new();
        for window in windows {
            plan.forward_seams(window, &mut |seam, t| {
                observers[seam].observe(t);
                if Some(seam) == fc_flat_seam {
                    pooled_maps.push(t.clone());
                }
            })?;
        }
        if let PlanHead::Fc {
            hidden,
            channels,
            window,
            ..
        } = plan.head()
        {
            let hidden_seam = plan.num_seams() - 1;
            let (c, w) = (*channels, *window);
            let wm = hidden.weight.data();
            let out_f = hidden.out_features;
            let mut flat = vec![0.0f32; c * w];
            for map in &pooled_maps {
                let (n, t) = (map.dims()[0], map.dims()[2]);
                for bn in 0..n {
                    for s in 0..t {
                        // The streamed flatten at pooled step `s`: the last
                        // `w` pooled columns, zero-padded before step 0,
                        // oldest first (ring gather order).
                        for ci in 0..c {
                            for j in 0..w {
                                let idx = s as isize + 1 - w as isize + j as isize;
                                flat[ci * w + j] = if idx < 0 {
                                    0.0
                                } else {
                                    map.data()[(bn * c + ci) * t + idx as usize]
                                };
                            }
                        }
                        for o in 0..out_f {
                            let mut acc = hidden.bias.data()[o];
                            for (i, &f) in flat.iter().enumerate() {
                                acc += f * wm[i * out_f + o];
                            }
                            observers[hidden_seam].observe_slice(&[acc.max(0.0)]);
                        }
                    }
                }
            }
        }
        Ok(Self {
            max_abs: observers.iter().map(MaxAbsObserver::max_abs).collect(),
        })
    }

    /// Number of seams recorded.
    pub fn len(&self) -> usize {
        self.max_abs.len()
    }

    /// Returns `true` when no seams were recorded.
    pub fn is_empty(&self) -> bool {
        self.max_abs.is_empty()
    }

    /// Max-abs range observed at seam `i`.
    pub fn seam_max_abs(&self, i: usize) -> f32 {
        self.max_abs[i]
    }
}

// ---------------------------------------------------------------------------
// Quantized layers
// ---------------------------------------------------------------------------

/// An int8 convolution: per-output-channel weight scales, one activation
/// scale at the input seam, exact `i32` accumulation, f32 bias.
#[derive(Debug, Clone)]
pub struct QuantizedConv {
    pub(crate) c_in: usize,
    pub(crate) c_out: usize,
    pub(crate) k: usize,
    pub(crate) dilation: usize,
    /// Execution pack `[(tap, channel), C_out]` (`j = kk·C_in + ci` rows):
    /// both the per-step input-major accumulation and the batched wave GEMM
    /// read this, matching the tap-major gather rows.
    pub(crate) wt_q: Vec<i8>,
    /// Input activation scale (from calibration).
    pub(crate) in_scale: f32,
    /// Reciprocal of `in_scale` — the seam quantizes with one multiply.
    pub(crate) inv_in_scale: f32,
    /// Calibrated max-abs of the layer's (f32 reference) input.
    pub(crate) in_max: f32,
    /// Bias `[C_out]`, applied in f32 after dequantization.
    pub(crate) bias: Vec<f32>,
    /// Per-output-channel weight scales (kept verbatim so artifact round
    /// trips are bit-stable; `deq` is the product with `in_scale`).
    pub(crate) w_scales: Vec<f32>,
    /// Dequantization factor per output channel: `in_scale · w_scale[co]`.
    pub(crate) deq: Vec<f32>,
    /// `Σ_j |ŵ[co, j]|` over dequantized weights — the per-channel Lipschitz
    /// factor of the error-bound recursion.
    pub(crate) l1q: Vec<f32>,
    /// `Σ_j |ŵ[co, j] − w[co, j]|` — the exact weight-rounding mass.
    pub(crate) dw_l1: Vec<f32>,
}

impl QuantizedConv {
    /// Quantizes a compiled (mask-folded, BN-folded) convolution given the
    /// calibrated max-abs of its input activations.
    pub fn from_compiled(conv: &CompiledConv, in_max: f32) -> Self {
        let (c_in, c_out, k) = (conv.in_channels(), conv.out_channels(), conv.kernel());
        let ck = c_in * k;
        let q = quantize_per_channel(&conv.weight);
        let mut dw_l1 = vec![0.0f32; c_out];
        for co in 0..c_out {
            let scale = q.scales[co];
            for j in 0..ck {
                let wv = f32::from(q.data[co * ck + j]) * scale;
                dw_l1[co] += (wv - conv.weight.data()[co * ck + j]).abs();
            }
        }
        Self::from_quantized_parts(
            c_in,
            c_out,
            k,
            conv.dilation(),
            &q.data,
            q.scales,
            in_max,
            conv.bias.data().to_vec(),
            dw_l1,
        )
    }

    /// Rebuilds a quantized convolution from its canonical serialized parts:
    /// codes `wq` in `[C_out, C_in, K]` order, per-output-channel `scales`,
    /// the calibrated input max-abs, the f32 bias and the weight-rounding
    /// mass `dw_l1` (which cannot be recomputed without the original f32
    /// weights). The execution pack and the derived bound factors are
    /// reconstructed, bit-identically to [`QuantizedConv::from_compiled`].
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the geometry; the artifact
    /// parser validates lengths before calling this.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_quantized_parts(
        c_in: usize,
        c_out: usize,
        k: usize,
        dilation: usize,
        wq: &[i8],
        scales: Vec<f32>,
        in_max: f32,
        bias: Vec<f32>,
        dw_l1: Vec<f32>,
    ) -> Self {
        let ck = c_in * k;
        assert_eq!(wq.len(), ck * c_out, "quantized weight length");
        assert_eq!(scales.len(), c_out, "scale count");
        assert_eq!(bias.len(), c_out, "bias length");
        assert_eq!(dw_l1.len(), c_out, "dw_l1 length");
        let in_scale = symmetric_scale(in_max);
        // Transposed pack in *(tap, channel)* order: gather row `j` is
        // `(kk, ci)` with `j = kk·C_in + ci`, so a streaming gather is one
        // contiguous column copy per tap (see `ConvKernel::gather` for `I8`).
        let mut wt_q = vec![0i8; ck * c_out];
        for co in 0..c_out {
            for ci in 0..c_in {
                for kk in 0..k {
                    wt_q[(kk * c_in + ci) * c_out + co] = wq[co * ck + ci * k + kk];
                }
            }
        }
        let mut l1q = vec![0.0f32; c_out];
        for co in 0..c_out {
            let scale = scales[co];
            for j in 0..ck {
                l1q[co] += (f32::from(wq[co * ck + j]) * scale).abs();
            }
        }
        Self {
            c_in,
            c_out,
            k,
            dilation,
            wt_q,
            in_scale,
            inv_in_scale: 1.0 / in_scale,
            in_max,
            bias,
            deq: scales.iter().map(|&s| s * in_scale).collect(),
            w_scales: scales,
            l1q,
            dw_l1,
        }
    }

    /// The quantized codes back in canonical `[C_out, C_in, K]` order (the
    /// inverse of the execution pack) — the artifact serialization layout.
    pub(crate) fn canonical_wq(&self) -> Vec<i8> {
        let ck = self.c_in * self.k;
        let mut wq = vec![0i8; ck * self.c_out];
        for co in 0..self.c_out {
            for ci in 0..self.c_in {
                for kk in 0..self.k {
                    wq[co * ck + ci * self.k + kk] =
                        self.wt_q[(kk * self.c_in + ci) * self.c_out + co];
                }
            }
        }
        wq
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.c_in
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.c_out
    }

    /// Stored (alive) taps.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Dilation between stored taps.
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Receptive field in input samples — the `i8` ring length per stream.
    pub fn receptive_field(&self) -> usize {
        (self.k - 1) * self.dilation + 1
    }

    /// One step of the error-bound recursion: the worst-case output error
    /// when the layer's input carries error at most `e_in` against an f32
    /// reference whose activations stay within the calibrated range.
    fn bound(&self, e_in: f32) -> f32 {
        rounding_bound(&self.l1q, &self.dw_l1, self.in_scale, self.in_max, e_in)
    }
}

/// The per-layer error-bound step shared by conv and dense layers. Per
/// output channel: `Σ|ŵ| · (e_in + in_scale/2) + Σ|ŵ−w| · in_max` (input
/// rounding through the quantized weights, plus weight rounding against the
/// bounded reference input); the bound is the channel max.
fn rounding_bound(l1q: &[f32], dw_l1: &[f32], in_scale: f32, in_max: f32, e_in: f32) -> f32 {
    let q_in = 0.5 * in_scale;
    l1q.iter()
        .zip(dw_l1.iter())
        .map(|(&l1, &dw)| l1 * (e_in + q_in) + dw * in_max)
        .fold(0.0f32, f32::max)
}

/// An int8 dense layer `y = x · W + b`: per-output-feature weight scales,
/// one activation scale at the input seam.
#[derive(Debug, Clone)]
pub struct QuantizedDense {
    pub(crate) in_features: usize,
    pub(crate) out_features: usize,
    /// Quantized weights `[in, out]` (the wave-GEMM operand, matching the
    /// f32 [`Dense`] layout; also the per-step operand — the solo path
    /// accumulates input-major so ReLU zeros skip whole rows).
    pub(crate) wq_cols: Vec<i8>,
    pub(crate) in_scale: f32,
    pub(crate) inv_in_scale: f32,
    pub(crate) in_max: f32,
    pub(crate) bias: Vec<f32>,
    /// Per-output-feature weight scales (kept verbatim so artifact round
    /// trips are bit-stable; `deq` is the product with `in_scale`).
    pub(crate) w_scales: Vec<f32>,
    /// `in_scale · w_scale[o]` per output feature.
    pub(crate) deq: Vec<f32>,
    pub(crate) l1q: Vec<f32>,
    pub(crate) dw_l1: Vec<f32>,
}

impl QuantizedDense {
    /// Quantizes a compiled dense layer given the calibrated max-abs of its
    /// input activations.
    pub fn from_dense(dense: &Dense, in_max: f32) -> Self {
        let (in_f, out_f) = (dense.in_features(), dense.out_features());
        // Transpose to [out, in] so per-channel quantization scales each
        // output feature independently.
        let mut wt = vec![0.0f32; out_f * in_f];
        for i in 0..in_f {
            for o in 0..out_f {
                wt[o * in_f + i] = dense.weight.data()[i * out_f + o];
            }
        }
        let q = quantize_per_channel(
            &Tensor::from_vec(wt.clone(), &[out_f, in_f]).expect("transposed weight shape"),
        );
        let mut dw_l1 = vec![0.0f32; out_f];
        for o in 0..out_f {
            let scale = q.scales[o];
            for i in 0..in_f {
                let wv = f32::from(q.data[o * in_f + i]) * scale;
                dw_l1[o] += (wv - wt[o * in_f + i]).abs();
            }
        }
        Self::from_quantized_parts(
            in_f,
            out_f,
            &q.data,
            q.scales,
            in_max,
            dense.bias.data().to_vec(),
            dw_l1,
        )
    }

    /// Rebuilds a quantized dense layer from its canonical serialized parts:
    /// codes `wq` in `[out, in]` order (the per-channel quantization
    /// layout), per-output-feature `scales`, the calibrated input max-abs,
    /// the f32 bias and the weight-rounding mass `dw_l1`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the geometry; the artifact
    /// parser validates lengths before calling this.
    pub(crate) fn from_quantized_parts(
        in_f: usize,
        out_f: usize,
        wq: &[i8],
        scales: Vec<f32>,
        in_max: f32,
        bias: Vec<f32>,
        dw_l1: Vec<f32>,
    ) -> Self {
        assert_eq!(wq.len(), in_f * out_f, "quantized weight length");
        assert_eq!(scales.len(), out_f, "scale count");
        assert_eq!(bias.len(), out_f, "bias length");
        assert_eq!(dw_l1.len(), out_f, "dw_l1 length");
        let in_scale = symmetric_scale(in_max);
        let mut wq_cols = vec![0i8; in_f * out_f];
        for o in 0..out_f {
            for i in 0..in_f {
                wq_cols[i * out_f + o] = wq[o * in_f + i];
            }
        }
        let mut l1q = vec![0.0f32; out_f];
        for o in 0..out_f {
            let scale = scales[o];
            for i in 0..in_f {
                l1q[o] += (f32::from(wq[o * in_f + i]) * scale).abs();
            }
        }
        Self {
            in_features: in_f,
            out_features: out_f,
            wq_cols,
            in_scale,
            inv_in_scale: 1.0 / in_scale,
            in_max,
            bias,
            deq: scales.iter().map(|&s| s * in_scale).collect(),
            w_scales: scales,
            l1q,
            dw_l1,
        }
    }

    /// The quantized codes back in canonical `[out, in]` order — the
    /// artifact serialization layout.
    pub(crate) fn canonical_wq(&self) -> Vec<i8> {
        let (in_f, out_f) = (self.in_features, self.out_features);
        let mut wq = vec![0i8; in_f * out_f];
        for o in 0..out_f {
            for i in 0..in_f {
                wq[o * in_f + i] = self.wq_cols[i * out_f + o];
            }
        }
        wq
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Dense analogue of [`QuantizedConv::bound`].
    fn bound(&self, e_in: f32) -> f32 {
        rounding_bound(&self.l1q, &self.dw_l1, self.in_scale, self.in_max, e_in)
    }
}

/// `acc[o] = Σ_j x[j] · w[j·out_f + o]` — the input-major `i8·i8→i32`
/// microkernel of the solo streaming path. Integer accumulators carry no
/// ordering constraint (the f32 backend's serial dot cannot be reordered), so
/// register-blocking the output lane into fixed-width accumulator arrays
/// lets the whole reduction vectorize with no per-row loop-bound checks —
/// the runtime-width form of this loop measured *slower* than the f32 dot.
fn accumulate_rows(wq: &[i8], x: &[i8], out_f: usize, acc: &mut [i32]) {
    let mut col = 0;
    while col + 16 <= out_f {
        accumulate_block::<16>(wq, x, out_f, col, acc);
        col += 16;
    }
    if col + 8 <= out_f {
        accumulate_block::<8>(wq, x, out_f, col, acc);
        col += 8;
    }
    if col + 4 <= out_f {
        accumulate_block::<4>(wq, x, out_f, col, acc);
        col += 4;
    }
    while col < out_f {
        accumulate_block::<1>(wq, x, out_f, col, acc);
        col += 1;
    }
}

/// Computes output lanes `col..col + R` across every input row, holding the
/// `R` partial sums in a fixed-size (register-resident) array. Lane blocks
/// cover disjoint column ranges, so the writeback assigns — no pre-zeroing
/// pass over `acc`.
fn accumulate_block<const R: usize>(
    wq: &[i8],
    x: &[i8],
    out_f: usize,
    col: usize,
    acc: &mut [i32],
) {
    let mut a = [0i32; R];
    for (j, &xq) in x.iter().enumerate() {
        let xv = i32::from(xq);
        let wrow: &[i8; R] = wq[j * out_f + col..j * out_f + col + R]
            .try_into()
            .expect("lane block");
        for l in 0..R {
            a[l] += xv * i32::from(wrow[l]);
        }
    }
    acc[col..col + R].copy_from_slice(&a);
}

// ---------------------------------------------------------------------------
// Quantized plan
// ---------------------------------------------------------------------------

/// A quantized average-pooling stage: the window ring is stored as `i8` at
/// its own calibrated seam scale (pooling is linear, so the mean of the
/// quantized columns dequantizes in one multiply), keeping *all* per-stream
/// ring state one byte per slot.
#[derive(Debug, Clone)]
pub struct QuantPool {
    /// Pooling geometry.
    pub(crate) spec: PoolSpec,
    /// Calibrated max-abs of the window's (f32 reference) input, kept
    /// verbatim so artifact round trips are bit-stable.
    pub(crate) in_max: f32,
    /// Input activation scale (from calibration).
    pub(crate) in_scale: f32,
    /// Reciprocal of `in_scale` — the seam quantizes with one multiply.
    pub(crate) inv_in_scale: f32,
    /// Dequantization of the window mean: `in_scale / kernel`.
    pub(crate) deq: f32,
}

impl QuantPool {
    pub(crate) fn new(spec: PoolSpec, in_max: f32) -> Self {
        let in_scale = symmetric_scale(in_max);
        Self {
            spec,
            in_max,
            in_scale,
            inv_in_scale: 1.0 / in_scale,
            deq: in_scale / spec.kernel as f32,
        }
    }
}

/// One block of a quantized plan: a [`PlanBlock`] over int8 layers. The
/// residual skip adds in f32 before the block's final ReLU; a pooling stage
/// keeps its window in int8.
pub type QuantBlock = PlanBlock<QuantizedConv, QuantPool>;

/// The output head of a quantized plan: a [`PlanHead`] over int8 layers
/// (the global-pool running mean stays f32).
pub type QuantHead = PlanHead<QuantizedConv, QuantizedDense>;

/// The int8 form of an [`InferencePlan`]: same structure, same streaming
/// semantics, `i8` weights and ring buffers, and an analytic parity bound
/// against the f32 plan it was lowered from.
pub type QuantizedPlan = Plan<I8>;

/// Composes the analytic error bound of a quantized plan from its layers —
/// the recursion described in the module docs: each conv/dense layer maps an
/// incoming error `e` through [`rounding_bound`], residual branches add,
/// average pooling is 1-Lipschitz plus half a step of its own seam scale.
/// One function serves both [`QuantizedPlan::new`] and the artifact loader,
/// so a plan and its deserialized twin carry the same bound.
fn compose_error_bound(blocks: &[QuantBlock], head: &QuantHead) -> f32 {
    let mut e = 0.0f32;
    for block in blocks {
        match block {
            QuantBlock::Residual {
                conv1,
                conv2,
                downsample,
            } => {
                let e_branch = conv2.bound(conv1.bound(e));
                let e_skip = downsample.as_ref().map(|d| d.bound(e)).unwrap_or(e);
                e = e_branch + e_skip;
            }
            QuantBlock::Plain { convs, pool } => {
                for conv in convs {
                    e = conv.bound(e);
                }
                // Averaging is 1-Lipschitz; quantizing the pool window adds
                // one half-step of its seam scale to the bound.
                if let Some(qp) = pool {
                    e += 0.5 * qp.in_scale;
                }
            }
        }
    }
    match head {
        QuantHead::PerStep(conv) => conv.bound(e),
        QuantHead::Fc { hidden, output, .. } => output.bound(hidden.bound(e)),
        // The f32 running mean is 1-Lipschitz; the dense seam was calibrated
        // pre-pool, which dominates every prefix mean.
        QuantHead::GlobalPoolFc(dense) => dense.bound(e),
    }
}

impl QuantizedPlan {
    /// Lowers an f32 plan into int8 using a previously collected
    /// [`Calibration`].
    ///
    /// # Errors
    ///
    /// Returns a message when the calibration's seam count does not match
    /// the plan (it was collected for a different plan).
    pub fn new(plan: &InferencePlan, cal: &Calibration) -> std::result::Result<Self, String> {
        if cal.len() != plan.num_seams() {
            return Err(format!(
                "calibration covers {} seams but the plan has {}",
                cal.len(),
                plan.num_seams()
            ));
        }
        let mut seam = 0usize;
        let mut next = || {
            let m = cal.seam_max_abs(seam);
            seam += 1;
            m
        };
        let mut blocks = Vec::with_capacity(plan.blocks().len());
        for block in plan.blocks() {
            match block {
                PlanBlock::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    let q1 = QuantizedConv::from_compiled(conv1, next());
                    let q2 = QuantizedConv::from_compiled(conv2, next());
                    let qd = downsample
                        .as_ref()
                        .map(|ds| QuantizedConv::from_compiled(ds, next()));
                    blocks.push(QuantBlock::Residual {
                        conv1: q1,
                        conv2: q2,
                        downsample: qd,
                    });
                }
                PlanBlock::Plain { convs, pool } => {
                    let qconvs = convs
                        .iter()
                        .map(|conv| QuantizedConv::from_compiled(conv, next()))
                        .collect();
                    blocks.push(QuantBlock::Plain {
                        convs: qconvs,
                        pool: pool.map(|spec| QuantPool::new(spec, next())),
                    });
                }
            }
        }
        let head = match plan.head() {
            PlanHead::PerStep(conv) => {
                QuantHead::PerStep(QuantizedConv::from_compiled(conv, next()))
            }
            PlanHead::Fc {
                hidden,
                output,
                channels,
                window,
            } => QuantHead::Fc {
                hidden: QuantizedDense::from_dense(hidden, next()),
                output: QuantizedDense::from_dense(output, next()),
                channels: *channels,
                window: *window,
            },
            PlanHead::GlobalPoolFc(dense) => {
                QuantHead::GlobalPoolFc(QuantizedDense::from_dense(dense, next()))
            }
        };
        Ok(Self {
            name: format!("{}-int8", plan.name()),
            input_channels: plan.input_channels(),
            blocks,
            head,
        })
    }

    /// Calibrates on `windows` and lowers in one call.
    ///
    /// # Errors
    ///
    /// Returns a message when a window does not match the plan's input
    /// shape.
    pub fn quantize(plan: &InferencePlan, windows: &[Tensor]) -> std::result::Result<Self, String> {
        let cal = Calibration::collect(plan, windows).map_err(|e| e.to_string())?;
        Self::new(plan, &cal)
    }

    /// Analytic worst-case `|int8 − f32|` per output value, for inputs whose
    /// seam activations stay inside the calibrated ranges. Integer
    /// accumulation is exact, so this composes only the seam rounding
    /// (`in_scale/2`) and the measured weight-rounding mass through each
    /// layer's `Σ|ŵ|` Lipschitz factor (see the module docs for the
    /// derivation).
    pub fn error_bound(&self) -> f32 {
        compose_error_bound(&self.blocks, &self.head)
    }

    /// Bytes of weight payload the int8 plan ships: one byte per weight plus
    /// four per scale and per f32 bias entry.
    pub fn weight_bytes(&self) -> usize {
        let conv = |c: &QuantizedConv| c.wt_q.len() + 4 * (c.deq.len() + c.bias.len());
        let dense = |d: &QuantizedDense| d.wq_cols.len() + 4 * (d.deq.len() + d.bias.len());
        let mut total = 0usize;
        for block in &self.blocks {
            match block {
                QuantBlock::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    total += conv(conv1) + conv(conv2);
                    if let Some(ds) = downsample {
                        total += conv(ds);
                    }
                }
                QuantBlock::Plain { convs, .. } => total += convs.iter().map(&conv).sum::<usize>(),
            }
        }
        total
            + match &self.head {
                QuantHead::PerStep(c) => conv(c),
                QuantHead::Fc { hidden, output, .. } => dense(hidden) + dense(output),
                QuantHead::GlobalPoolFc(d) => dense(d),
            }
    }
}

// ---------------------------------------------------------------------------
// The int8 backend
// ---------------------------------------------------------------------------

/// The int8 backend: `i8` rings quantized at each layer seam, exact
/// `i8×i8→i32` accumulation (input-major per step,
/// [`pit_tensor::kernels::gemm_i8`] per wave), f32 dequantization + bias.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct I8;

/// Over-allocation past the live ring/row bytes, letting gathers run as
/// fixed 16-byte copies (compiled to plain loads/stores) instead of
/// variable-length `memcpy` calls for the narrow columns PIT networks have.
const COPY_PAD: usize = 16;

impl Backend for I8 {
    type Elem = i8;
    type Conv = QuantizedConv;
    type Dense = QuantizedDense;
    type Pool = QuantPool;
    const PAD: usize = COPY_PAD;
}

/// One stream's stateful int8 execution of a quantized plan: the same
/// emission schedule as the f32 [`crate::Session`], `i8` ring state, and
/// outputs within [`QuantizedPlan::error_bound`] of the f32 engine.
pub type QuantizedSession = Session<I8>;

/// A pool of concurrent int8 streaming sessions executed in batched waves,
/// each layer's wave one `i8×i8→i32` GEMM.
pub type QuantizedSessionPool = SessionPool<I8>;

/// Dequantize + bias (+ fused ReLU) of one output row.
fn dequantize(acc: &[i32], deq: &[f32], bias: &[f32], out: &mut [f32], relu: bool) {
    let rows = out.iter_mut().zip(acc).zip(deq.iter().zip(bias));
    if relu {
        for ((slot, &a), (&d, &b)) in rows {
            *slot = (a as f32 * d + b).max(0.0);
        }
    } else {
        for ((slot, &a), (&d, &b)) in rows {
            *slot = a as f32 * d + b;
        }
    }
}

/// What both int8 kernels read of a conv or dense layer: the `[kd, out]`
/// code pack, the per-output dequantization factors and the f32 bias.
/// Sharing one per-step and one per-wave kernel between the two layer
/// kinds keeps the solo-vs-pool bit-exactness a single piece of arithmetic.
struct I8Layer<'a> {
    w: &'a [i8],
    kd: usize,
    deq: &'a [f32],
    bias: &'a [f32],
}

impl I8Layer<'_> {
    /// Input-major exact accumulation over the pack, then dequantize.
    fn matvec(&self, x: &[i8], acc: &mut [i32], out: &mut [f32], relu: bool) {
        let out_f = self.deq.len();
        accumulate_rows(self.w, &x[..self.kd], out_f, acc);
        dequantize(&acc[..out_f], self.deq, self.bias, &mut out[..out_f], relu);
    }

    /// One `i8` GEMM over the `[n, kd]` rows, then dequantize each row.
    fn matmul(&self, n: usize, rows: &[i8], acc: &mut [i32], out: &mut [f32], relu: bool) {
        let out_f = self.deq.len();
        let acc = &mut acc[..n * out_f];
        acc.fill(0);
        gemm_i8(n, self.kd, out_f, rows, self.w, acc);
        for (a, o) in acc.chunks_exact(out_f).zip(out.chunks_exact_mut(out_f)) {
            dequantize(a, self.deq, self.bias, o, relu);
        }
    }
}

impl Seam<i8> for QuantizedConv {
    fn seam(&self, v: f32) -> i8 {
        quantize_value_inv(v, self.inv_in_scale)
    }
}

impl QuantizedConv {
    fn layer(&self) -> I8Layer<'_> {
        I8Layer {
            w: &self.wt_q,
            kd: self.c_in * self.k,
            deq: &self.deq,
            bias: &self.bias,
        }
    }
}

impl Kernel<i8> for QuantizedConv {
    fn matvec(&self, x: &[i8], acc: &mut [i32], out: &mut [f32], relu: bool) {
        self.layer().matvec(x, acc, out, relu);
    }

    fn matmul(&self, n: usize, rows: &[i8], acc: &mut [i32], out: &mut [f32], relu: bool) {
        self.layer().matmul(n, rows, acc, out, relu);
    }
}

impl ConvKernel<i8> for QuantizedConv {
    fn shape(&self) -> ConvShape {
        ConvShape {
            c_in: self.c_in,
            c_out: self.c_out,
            k: self.k,
            dilation: self.dilation,
        }
    }

    /// Tap-major rows (`[K, C_in]`, matching the `wt_q` pack): one
    /// contiguous column copy per alive tap; narrow columns copy as one
    /// fixed 16-byte block into the padded scratch (no `memcpy` call).
    fn gather(&self, ring: &Ring<i8>, row: &mut [i8]) {
        let c_in = self.c_in;
        for kk in 0..self.k {
            let (src, dst) = (ring.row_of(kk * self.dilation) * c_in, kk * c_in);
            if c_in <= COPY_PAD {
                // Both buffers carry COPY_PAD slack; later taps overwrite
                // the spill and the kernels read only `C_in · K`.
                let chunk: &[i8; COPY_PAD] = ring.hist[src..src + COPY_PAD]
                    .try_into()
                    .expect("padded ring");
                row[dst..dst + COPY_PAD].copy_from_slice(chunk);
            } else {
                row[dst..dst + c_in].copy_from_slice(&ring.hist[src..src + c_in]);
            }
        }
    }
}

impl Seam<i8> for QuantizedDense {
    fn seam(&self, v: f32) -> i8 {
        quantize_value_inv(v, self.inv_in_scale)
    }
}

impl QuantizedDense {
    fn layer(&self) -> I8Layer<'_> {
        I8Layer {
            w: &self.wq_cols,
            kd: self.in_features,
            deq: &self.deq,
            bias: &self.bias,
        }
    }
}

impl Kernel<i8> for QuantizedDense {
    fn matvec(&self, x: &[i8], acc: &mut [i32], out: &mut [f32], relu: bool) {
        self.layer().matvec(x, acc, out, relu);
    }

    fn matmul(&self, n: usize, rows: &[i8], acc: &mut [i32], out: &mut [f32], relu: bool) {
        self.layer().matmul(n, rows, acc, out, relu);
    }
}

impl DenseKernel<i8> for QuantizedDense {
    fn features(&self) -> (usize, usize) {
        (self.in_features, self.out_features)
    }
}

impl Seam<i8> for QuantPool {
    fn seam(&self, v: f32) -> i8 {
        quantize_value_inv(v, self.inv_in_scale)
    }
}

impl PoolKernel<i8> for QuantPool {
    fn spec(&self) -> PoolSpec {
        self.spec
    }

    /// Sums of at most `kernel` i8 codes are exact in f32, so the mean
    /// dequantizes in one multiply by `in_scale / kernel`.
    fn mean_scale(&self) -> f32 {
        self.deq
    }
}
