//! Batch-of-sessions serving: many concurrent streams, one kernel call.
//!
//! A [`SessionPool`] owns the state of N independent streams plus
//! per-stream queues of pending samples. [`SessionPool::flush`] drains the
//! queues in *waves*: every stream with a pending sample contributes one
//! timestep, and the whole wave moves through the plan layer by layer — each
//! convolution is a single `[N, C_in·K] × [C_in·K, C_out]` matrix product
//! through the backend's [`Kernel::matmul`] instead of N tiny per-stream
//! kernels. Strided pooling gates streams independently (each keeps its own
//! phase), so a wave simply narrows as it descends past a pool that did not
//! fire for some streams.
//!
//! This is the serving story of the crate: N live streams (PPG wearables,
//! audio channels, …) → one batched kernel invocation per layer per wave,
//! with all scratch owned by the pool and reused across flushes.

use crate::plan::{Plan, PlanBlock, PlanHead};
use crate::stream::{
    accumulate_mean, gather_fc_window, push_fc_window, Backend, ConvKernel, DenseKernel, Kernel,
    Scratch, Seam, StreamState, F32,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// A pool of concurrent streaming sessions executed in batched waves.
///
/// Streams have a lifecycle: [`SessionPool::new`] pre-opens a fixed count,
/// and a serving front end grows/shrinks the live set with
/// [`SessionPool::open_stream`] / [`SessionPool::close_stream`] — closing
/// resets the slot and recycles it, so a long-running server's pool does not
/// grow with connection churn.
pub struct SessionPool<B: Backend = F32> {
    plan: Arc<Plan<B>>,
    states: Vec<StreamState<B::Elem>>,
    /// Pending samples per stream, flattened (`input_channels` floats each).
    queues: Vec<VecDeque<f32>>,
    /// Whether each slot currently belongs to a live stream.
    open: Vec<bool>,
    /// Closed slots available for reuse by [`SessionPool::open_stream`].
    free: Vec<usize>,
    /// Slots of the current wave, narrowed by pooling stages.
    active: Vec<usize>,
    /// Wave scratch for every slot, reused across flushes.
    scratch: Scratch<B::Elem>,
}

impl<B: Backend> SessionPool<B> {
    /// Creates a pool of `sessions` fresh (already open) streams over one
    /// shared plan. Pass `0` to start empty and open streams on demand.
    pub fn new(plan: Arc<Plan<B>>, sessions: usize) -> Self {
        let state = StreamState::new(&plan);
        Self {
            states: vec![state; sessions],
            queues: vec![VecDeque::new(); sessions],
            open: vec![true; sessions],
            free: Vec::new(),
            active: Vec::with_capacity(sessions),
            scratch: Scratch::new(&plan, sessions),
            plan,
        }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<Plan<B>> {
        &self.plan
    }

    /// Number of currently open streams.
    pub fn open_streams(&self) -> usize {
        self.open.iter().filter(|&&o| o).count()
    }

    /// Whether slot `sid` currently belongs to a live stream.
    pub fn is_open(&self, sid: usize) -> bool {
        self.open.get(sid).copied().unwrap_or(false)
    }

    /// Opens a stream with fresh (zero) state, reusing a closed slot when
    /// one exists and growing the pool otherwise. Returns the stream id.
    pub fn open_stream(&mut self) -> usize {
        if let Some(sid) = self.free.pop() {
            self.open[sid] = true;
            return sid;
        }
        let sid = self.states.len();
        self.states.push(StreamState::new(&self.plan));
        self.queues.push(VecDeque::new());
        self.open.push(true);
        self.scratch.resize(self.states.len());
        sid
    }

    /// Closes stream `sid`: drops its queued samples, resets its state and
    /// recycles the slot for a future [`SessionPool::open_stream`]. The
    /// eviction/drain path of a serving front end — no other stream is
    /// disturbed and no pool-wide drain is needed.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is out of range or already closed.
    pub fn close_stream(&mut self, sid: usize) {
        assert!(self.open[sid], "stream {sid} is not open");
        self.states[sid].reset();
        self.queues[sid].clear();
        self.open[sid] = false;
        self.free.push(sid);
    }

    /// Pending (queued, not yet flushed) timesteps across all streams.
    pub fn pending_steps(&self) -> usize {
        let c = self.plan.input_channels().max(1);
        self.queues.iter().map(|q| q.len() / c).sum()
    }

    /// Pending (queued, not yet flushed) timesteps of one stream — what a
    /// serving front end checks against its backpressure cap.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is out of range.
    pub fn pending_for(&self, sid: usize) -> usize {
        self.queues[sid].len() / self.plan.input_channels().max(1)
    }

    /// Queues one input sample for stream `sid`.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is out of range, the stream is closed, or the sample
    /// length differs from the plan's input channels.
    pub fn push(&mut self, sid: usize, sample: &[f32]) {
        assert_eq!(
            sample.len(),
            self.plan.input_channels(),
            "sample length must equal the plan's input channels"
        );
        assert!(self.open[sid], "stream {sid} is not open");
        self.queues[sid].extend(sample.iter().copied());
    }

    /// Drains every queue, one wave (= one timestep per stream with pending
    /// input) at a time, and returns the head outputs that were emitted, as
    /// `(stream_id, output)` in emission order (per stream: chronological).
    pub fn flush(&mut self) -> Vec<(usize, Vec<f32>)> {
        let plan = Arc::clone(&self.plan);
        let c_in = plan.input_channels();
        let mut results = Vec::new();
        loop {
            self.active.clear();
            for (sid, q) in self.queues.iter().enumerate() {
                if q.len() >= c_in {
                    self.active.push(sid);
                }
            }
            if self.active.is_empty() {
                return results;
            }
            // Dequeue one sample per active stream into the wave matrix.
            for (r, &sid) in self.active.iter().enumerate() {
                for ci in 0..c_in {
                    self.scratch.cur[r * c_in + ci] =
                        self.queues[sid].pop_front().expect("queued sample");
                }
            }
            self.run_wave(&plan, &mut results);
        }
    }

    /// Executes one wave currently held in `scratch.cur` over `active`.
    fn run_wave(&mut self, plan: &Plan<B>, results: &mut Vec<(usize, Vec<f32>)>) {
        let mut width = plan.input_channels();
        let (mut ri, mut pi) = (0, 0);
        for block in plan.blocks() {
            match block {
                PlanBlock::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    let n = self.active.len();
                    let s = &mut self.scratch;
                    s.skip[..n * width].copy_from_slice(&s.cur[..n * width]);
                    self.conv_wave(ri, conv1, width, true);
                    self.conv_wave(ri + 1, conv2, conv1.shape().c_out, true);
                    ri += 2;
                    if let Some(proj) = downsample {
                        // Swap the saved input into `cur` so the conv helper
                        // can read it (the residual branch parks in `skip`),
                        // then swap back: `cur` = branch, `skip` = projection.
                        let s = &mut self.scratch;
                        std::mem::swap(&mut s.cur, &mut s.skip);
                        self.conv_wave(ri, proj, width, false);
                        let s = &mut self.scratch;
                        std::mem::swap(&mut s.cur, &mut s.skip);
                        ri += 1;
                    }
                    width = conv2.shape().c_out;
                    let s = &mut self.scratch;
                    for (a, b) in s.cur[..n * width].iter_mut().zip(s.skip.iter()) {
                        *a = (*a + b).max(0.0);
                    }
                }
                PlanBlock::Plain { convs, pool } => {
                    for conv in convs {
                        self.conv_wave(ri, conv, width, true);
                        ri += 1;
                        width = conv.shape().c_out;
                    }
                    if let Some(p) = pool {
                        // Per-stream pool phase: keep only emitting rows.
                        let s = &mut self.scratch;
                        let mut kept = 0usize;
                        for r in 0..self.active.len() {
                            let sid = self.active[r];
                            let (src, dst) = (r * width, kept * width);
                            let emitted = self.states[sid].pool_step(
                                pi,
                                p,
                                &s.cur[src..src + width],
                                &mut s.nxt[dst..dst + width],
                            );
                            if emitted {
                                self.active[kept] = sid;
                                kept += 1;
                            }
                        }
                        pi += 1;
                        self.active.truncate(kept);
                        if self.active.is_empty() {
                            return;
                        }
                        std::mem::swap(&mut s.cur, &mut s.nxt);
                    }
                }
            }
        }
        let n = self.active.len();
        let out_f = plan.output_dim();
        match plan.head() {
            PlanHead::PerStep(conv) => self.conv_wave(ri, conv, width, false),
            PlanHead::Fc {
                hidden,
                output,
                channels,
                window,
            } => {
                let (in_f, hid_f) = hidden.features();
                let s = &mut self.scratch;
                for (r, &sid) in self.active.iter().enumerate() {
                    let (buf, pos) = self.states[sid].fc_window();
                    push_fc_window(buf, pos, *window, &s.cur[r * width..][..*channels], hidden);
                    let feat = &mut s.rows[r * in_f..(r + 1) * in_f];
                    gather_fc_window(buf, *pos, *channels, *window, feat);
                }
                finish_wave(s, hidden, n, true);
                // Convert the hidden activations (now in `cur`) at the
                // output layer's seam, then run the output layer as a
                // second wave.
                for (q, &v) in s.rows[..n * hid_f].iter_mut().zip(&s.cur[..n * hid_f]) {
                    *q = output.seam(v);
                }
                finish_wave(s, output, n, false);
            }
            PlanHead::GlobalPoolFc(dense) => {
                let in_f = dense.features().0;
                let s = &mut self.scratch;
                for (r, &sid) in self.active.iter().enumerate() {
                    let (sum, count) = self.states[sid].running_sum();
                    let col = &s.cur[r * width..(r + 1) * width];
                    accumulate_mean(
                        sum,
                        count,
                        col,
                        &mut s.rows[r * in_f..(r + 1) * in_f],
                        dense,
                    );
                }
                finish_wave(s, dense, n, false);
            }
        }
        let cur = &self.scratch.cur;
        for (r, &sid) in self.active.iter().enumerate() {
            results.push((sid, cur[r * out_f..(r + 1) * out_f].to_vec()));
        }
    }

    /// Batched step of conv `ri` (plan order) over the active wave: pushes
    /// each stream's ring at the layer seam, gathers the kernel rows and
    /// runs one matrix product. Reads columns from `cur`, leaves the output
    /// columns in `cur`.
    fn conv_wave(&mut self, ri: usize, conv: &B::Conv, width: usize, relu: bool) {
        let shape = conv.shape();
        let ck = shape.c_in * shape.k;
        let s = &mut self.scratch;
        for (r, &sid) in self.active.iter().enumerate() {
            let ring = self.states[sid].ring(ri);
            ring.push(&s.cur[r * width..r * width + shape.c_in], |v| conv.seam(v));
            conv.gather(ring, &mut s.rows[r * ck..]);
        }
        finish_wave(s, conv, self.active.len(), relu);
    }
}

/// Runs `layer` over the `n` kernel rows in `rows`, leaving the f32 results
/// in `cur`.
fn finish_wave<E: Copy + Default>(
    s: &mut Scratch<E>,
    layer: &impl Kernel<E>,
    n: usize,
    relu: bool,
) {
    layer.matmul(n, &s.rows, &mut s.acc, &mut s.nxt, relu);
    std::mem::swap(&mut s.cur, &mut s.nxt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_generic, compile_restcn, compile_temponet, InferencePlan};
    use crate::stream::Session;
    use pit_models::{
        GenericTcn, GenericTcnConfig, ResTcn, ResTcnConfig, TempoNet, TempoNetConfig,
    };
    use pit_nas::SearchableNetwork;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Feeds `steps` samples of `streams` independent random streams through
    /// a pool and through individual sessions; both must agree exactly.
    fn pool_matches_individual(plan: Arc<InferencePlan>, streams: usize, steps: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = plan.input_channels();
        let inputs: Vec<Vec<f32>> = (0..streams)
            .map(|_| (0..steps * c).map(|_| rng.gen::<f32>() - 0.5).collect())
            .collect();

        let mut pool = SessionPool::new(Arc::clone(&plan), streams);
        let mut pooled: Vec<Vec<Vec<f32>>> = vec![Vec::new(); streams];
        for t in 0..steps {
            for (sid, stream) in inputs.iter().enumerate() {
                pool.push(sid, &stream[t * c..(t + 1) * c]);
            }
            for (sid, out) in pool.flush() {
                pooled[sid].push(out);
            }
        }

        for (sid, stream) in inputs.iter().enumerate() {
            let mut session = Session::new(Arc::clone(&plan));
            let mut solo = Vec::new();
            for t in 0..steps {
                if let Some(out) = session.push(&stream[t * c..(t + 1) * c]) {
                    solo.push(out);
                }
            }
            assert_eq!(solo.len(), pooled[sid].len(), "stream {sid} emission count");
            for (a, b) in solo.iter().zip(pooled[sid].iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!((x - y).abs() < 1e-5, "stream {sid}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn pooled_temponet_matches_individual_sessions() {
        let mut rng = StdRng::seed_from_u64(20);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        pool_matches_individual(Arc::new(compile_temponet(&net)), 5, 40, 21);
    }

    #[test]
    fn pooled_restcn_matches_individual_sessions() {
        let mut rng = StdRng::seed_from_u64(22);
        let cfg = ResTcnConfig {
            hidden_channels: 6,
            input_channels: 3,
            output_channels: 3,
            dropout: 0.0,
            ..ResTcnConfig::paper()
        };
        let net = ResTcn::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        pool_matches_individual(Arc::new(compile_restcn(&net)), 4, 25, 23);
    }

    #[test]
    fn pooled_generic_matches_individual_sessions() {
        let mut rng = StdRng::seed_from_u64(24);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        net.set_dilations(&[4, 8]);
        pool_matches_individual(Arc::new(compile_generic(&net)), 7, 30, 25);
    }

    #[test]
    fn ragged_queues_flush_in_waves() {
        let mut rng = StdRng::seed_from_u64(26);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        let plan = Arc::new(compile_generic(&net));
        let mut pool = SessionPool::new(Arc::clone(&plan), 2);
        // Stream 0 gets 3 samples, stream 1 gets 1: flush must emit 3 + 1
        // outputs and keep per-stream chronology.
        for i in 0..3 {
            pool.push(0, &[i as f32]);
        }
        pool.push(1, &[9.0]);
        assert_eq!(pool.pending_steps(), 4);
        let results = pool.flush();
        assert_eq!(pool.pending_steps(), 0);
        assert_eq!(results.iter().filter(|(sid, _)| *sid == 0).count(), 3);
        assert_eq!(results.iter().filter(|(sid, _)| *sid == 1).count(), 1);

        // The same three samples through a fresh solo session agree.
        let mut solo = Session::new(plan);
        let solo_outs: Vec<_> = (0..3).filter_map(|i| solo.push(&[i as f32])).collect();
        let pooled0: Vec<_> = results
            .iter()
            .filter(|(sid, _)| *sid == 0)
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(solo_outs, pooled0);
    }
}
