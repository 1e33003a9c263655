//! Host-speed calibration and idle-CPU spinners.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by tens
//! of percent over minutes as other tenants load the physical host: the
//! same fixed computation takes 15–35% longer at one time than at another,
//! in CPU time as well as in wall time. Two helpers steady a run against
//! that.
//!
//! * A fixed reference computation — f32 multiply-adds, int8 dot products
//!   and a buffer copy, the operation mix of the program's kernels, none of
//!   it the program's code — runs in short chunks on the calling thread,
//!   each timed in thread CPU time ([`Calibration`]). Chunks are timed only
//!   between pieces of measured work, never alongside them: just before and
//!   after a serving drive, with the daemon idle; after each search; and
//!   between batches of set-ups ([`SetupClock`]). The median chunk time
//!   next to a piece of work, against [`REFERENCE_NS`], gives the speed
//!   factor by which that work's time-valued end-to-end metric is scaled to
//!   the reference speed ([`crate::report::Report::e2e_scaled`]). No program
//!   thread is busy while a chunk runs, so a change to the program does not
//!   move the factor; a slower or faster host moves both alike.
//! * During a serving drive, one spinner thread per CPU at `SCHED_IDLE`
//!   priority keeps every vCPU busy ([`Spinners`]). An idle vCPU halts, and on a loaded host the
//!   hypervisor takes tens to hundreds of microseconds to resume it for
//!   each wakeup, which shows as steal and as latency that is the host's
//!   and not the program's. The kernel runs any normal thread ahead of an
//!   idle-priority one, so the spinners take no CPU time the program asks
//!   for; they touch no memory, so they leave its caches alone. A spinner
//!   whose priority cannot be lowered exits at once instead of competing.

use crate::util;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// CPU nanoseconds of one reference chunk on a shared 2-vCPU KVM guest of
/// an Intel Xeon (Sapphire Rapids), about the median over several runs:
/// the speed every run's time-valued end-to-end metrics are scaled to.
pub const REFERENCE_NS: f64 = 800_000.0;
/// Reference chunks timed at each edge of a batch of set-ups (~3 ms).
const SETUP_CHUNKS: usize = 4;
/// Batches of set-ups timed before a run's measured work. The serving
/// workloads time as many again after it, the search one batch after each
/// search, so that `setup_s` samples the host across the run.
pub const SETUP_BATCHES: usize = 8;
/// f32 lanes the multiply-add loop runs over (two 16 KiB arrays).
const F32_LEN: usize = 4096;
/// int8 elements of the dot-product loop.
const I8_LEN: usize = 16_384;
/// Bytes of the copied buffer (L2-sized).
const COPY_BYTES: usize = 256 * 1024;
/// Distance of the copy's destination from its source, modulo a page: the
/// relative placement of the two sets how often loads and earlier stores
/// alias, so it is fixed rather than left to the allocator.
const COPY_SKEW: usize = 2048;
/// Passes of the multiply-add and dot-product loops per chunk.
const PASSES: usize = 120;
/// Copies of the buffer per chunk.
const COPIES: usize = 60;

/// The reference computation's working set.
struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    x: Vec<i8>,
    y: Vec<i8>,
    /// Source and destination of the copy, one allocation; see
    /// [`Reference::copy_ranges`].
    buf: Vec<u8>,
}

impl Reference {
    fn new() -> Self {
        let mut buf = vec![0u8; 2 * COPY_BYTES + COPY_SKEW + 2 * 4096];
        for (i, v) in buf.iter_mut().enumerate() {
            *v = i as u8;
        }
        Self {
            a: (0..F32_LEN).map(|i| 1.0 + (i % 7) as f32 * 1e-7).collect(),
            b: (0..F32_LEN).map(|i| (i % 5) as f32 * 1e-9).collect(),
            x: (0..I8_LEN).map(|i| (i % 251) as i8).collect(),
            y: (0..I8_LEN).map(|i| (i % 241) as i8).collect(),
            buf,
        }
    }

    /// Start of the copy's source (page-aligned) and of its destination
    /// (`COPY_SKEW` past a page boundary) inside `buf`.
    fn copy_ranges(&self) -> (usize, usize) {
        let src = self.buf.as_ptr().align_offset(4096);
        let dst = src + (COPY_BYTES + 4096) + COPY_SKEW;
        (src, dst)
    }

    // Each pass is compiled on its own (`inline(never)`), and on x86-64 the
    // arithmetic is written in SSE2 intrinsics, so the instructions the
    // reference runs do not change with how the compiler optimises the rest
    // of the program around it (whole-program LTO otherwise vectorises the
    // same loop differently from one build to the next).

    #[inline(never)]
    fn mul_add_pass(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [[0f32; 4]; 4];
        for _ in 0..PASSES {
            let a = black_box(a);
            let b = black_box(b);
            for (x, y) in a.chunks_exact(16).zip(b.chunks_exact(16)) {
                for k in 0..4 {
                    acc[k] = lanes::mul_add(acc[k], &x[4 * k..4 * k + 4], &y[4 * k..4 * k + 4]);
                }
            }
        }
        acc.iter().flatten().sum()
    }

    #[inline(never)]
    fn dot_pass(x: &[i8], y: &[i8]) -> i32 {
        let mut dot = [0i32; 4];
        for _ in 0..PASSES {
            let x = black_box(x);
            let y = black_box(y);
            for (p, q) in x.chunks_exact(16).zip(y.chunks_exact(16)) {
                dot = lanes::dot(dot, p, q);
            }
        }
        dot.iter().fold(0i32, |s, &v| s.wrapping_add(v))
    }

    #[inline(never)]
    fn copy_pass(buf: &mut [u8], src: usize, dst: usize) -> u8 {
        let (head, tail) = buf.split_at_mut(dst);
        let from = &head[src..src + COPY_BYTES];
        let to = &mut tail[..COPY_BYTES];
        for _ in 0..COPIES {
            to.copy_from_slice(black_box(from));
            black_box(&mut *to);
        }
        to[COPY_BYTES / 2]
    }

    /// One chunk of fixed work; returns a value that depends on all of it.
    /// The pass counts size a chunk at about 0.8 ms on a 2-vCPU KVM guest of
    /// an Intel Xeon (Sapphire Rapids).
    fn chunk(&mut self) -> f32 {
        let (src, dst) = self.copy_ranges();
        Self::mul_add_pass(&self.a, &self.b)
            + Self::dot_pass(&self.x, &self.y) as f32
            + f32::from(Self::copy_pass(&mut self.buf, src, dst))
    }

    /// Thread CPU nanoseconds of one chunk.
    fn timed_chunk(&mut self) -> u64 {
        let c0 = util::thread_cpu_ns();
        black_box(self.chunk());
        util::thread_cpu_ns().saturating_sub(c0)
    }
}

/// Four-lane steps of the reference passes: SSE2 intrinsics on x86-64
/// (part of its baseline, so always present), plain loops elsewhere.
mod lanes {
    /// `acc * x + y` per lane, a multiply then an add (no fused
    /// multiply-add, whose implementation would vary with the build).
    #[cfg(target_arch = "x86_64")]
    pub fn mul_add(acc: [f32; 4], x: &[f32], y: &[f32]) -> [f32; 4] {
        use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_storeu_ps};
        assert!(x.len() >= 4 && y.len() >= 4);
        let mut out = [0f32; 4];
        // SAFETY: SSE2 is enabled on every x86-64 target; each unaligned
        // load reads 4 f32 from a slice holding at least 4, and the store
        // writes the 4-element `out`.
        unsafe {
            let v = _mm_add_ps(
                _mm_mul_ps(_mm_loadu_ps(acc.as_ptr()), _mm_loadu_ps(x.as_ptr())),
                _mm_loadu_ps(y.as_ptr()),
            );
            _mm_storeu_ps(out.as_mut_ptr(), v);
        }
        out
    }

    /// `acc` plus the products of 16 int8 pairs, summed in four i32 lanes.
    #[cfg(target_arch = "x86_64")]
    pub fn dot(acc: [i32; 4], p: &[i8], q: &[i8]) -> [i32; 4] {
        use std::arch::x86_64::{
            __m128i, _mm_add_epi32, _mm_cmpgt_epi8, _mm_loadu_si128, _mm_madd_epi16,
            _mm_setzero_si128, _mm_storeu_si128, _mm_unpackhi_epi8, _mm_unpacklo_epi8,
        };
        assert!(p.len() >= 16 && q.len() >= 16);
        let mut out = [0i32; 4];
        // SAFETY: SSE2 is enabled on every x86-64 target; each unaligned
        // load reads 16 bytes from a slice holding at least 16, and the
        // store writes the 16-byte `out`.
        unsafe {
            let zero = _mm_setzero_si128();
            let pv = _mm_loadu_si128(p.as_ptr().cast::<__m128i>());
            let qv = _mm_loadu_si128(q.as_ptr().cast::<__m128i>());
            // Sign-extend the bytes to i16 by interleaving each with its
            // sign mask.
            let (ps, qs) = (_mm_cmpgt_epi8(zero, pv), _mm_cmpgt_epi8(zero, qv));
            let lo = _mm_madd_epi16(_mm_unpacklo_epi8(pv, ps), _mm_unpacklo_epi8(qv, qs));
            let hi = _mm_madd_epi16(_mm_unpackhi_epi8(pv, ps), _mm_unpackhi_epi8(qv, qs));
            let sum = _mm_add_epi32(
                _mm_loadu_si128(acc.as_ptr().cast::<__m128i>()),
                _mm_add_epi32(lo, hi),
            );
            _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), sum);
        }
        out
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub fn mul_add(acc: [f32; 4], x: &[f32], y: &[f32]) -> [f32; 4] {
        std::array::from_fn(|k| acc[k] * x[k] + y[k])
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub fn dot(acc: [i32; 4], p: &[i8], q: &[i8]) -> [i32; 4] {
        std::array::from_fn(|k| {
            (4 * k..4 * k + 4).fold(acc[k], |s, i| s.wrapping_add(p[i] as i32 * q[i] as i32))
        })
    }
}

/// Sets the calling thread's scheduling policy to `SCHED_IDLE`; returns
/// whether the kernel accepted it.
fn set_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` (one int) that
    // outlives the call; pid 0 names the calling thread, and SCHED_IDLE
    // with priority 0 is a valid policy for an unprivileged thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Reference chunks timed on the calling thread.
pub struct Calibration {
    reference: Reference,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// A fresh working set, warmed by one untimed chunk.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        reference.timed_chunk();
        Self {
            reference,
            samples: Vec::new(),
        }
    }

    /// Times `chunks` reference chunks; returns their median CPU ns.
    pub fn sample(&mut self, chunks: usize) -> f64 {
        let start = self.samples.len();
        for _ in 0..chunks {
            self.samples.push(self.reference.timed_chunk() as f64);
        }
        util::median(&mut self.samples[start..].to_vec())
    }

    /// Median CPU ns of every chunk timed so far.
    pub fn median_ns(&self) -> f64 {
        util::median(&mut self.samples.clone())
    }

    /// Chunks timed so far.
    pub fn chunks(&self) -> usize {
        self.samples.len()
    }
}

/// The factor that scales a time measured on a host whose median reference
/// chunk took `chunk_ns` to the reference speed; 1 without a reading.
pub fn speed_factor(chunk_ns: f64) -> f64 {
    if chunk_ns > 0.0 {
        REFERENCE_NS / chunk_ns
    } else {
        1.0
    }
}

/// Set-up costs, in batches: the median CPU time of each batch's set-ups,
/// scaled to the reference speed by the reference chunks timed just
/// before and just after it, and each set-up's wall time.
///
/// A set-up's CPU time is the benchmark process's own (every thread,
/// exited ones too; no spinner runs during set-ups) plus that of a daemon
/// child it started. CPU time is the set-up's cost: its wall time also
/// holds the wakeups, scheduling delays and steal of a shared host.
/// `setup_s` is the mean over batches, so that batches timed at different
/// points of a run average over the host's slow and fast spells.
pub struct SetupClock {
    per_batch: usize,
    calibration: Calibration,
    /// Per batch: median CPU seconds of its set-ups.
    batch_cpu: Vec<f64>,
    /// Per batch: the same, scaled by the batch's speed factor.
    batch_scaled: Vec<f64>,
    /// Per set-up: wall seconds.
    wall: Vec<f64>,
}

/// What a [`SetupClock`] measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Mean over batches of the median set-up CPU seconds, scaled to the
    /// reference speed.
    pub cpu_s: f64,
    /// The same, unscaled.
    pub raw_cpu_s: f64,
    /// Median wall seconds of one set-up.
    pub wall_s: f64,
    /// Set-ups timed.
    pub count: usize,
}

impl SetupClock {
    /// A clock that times set-ups `per_batch` at a time.
    pub fn new(per_batch: usize) -> Self {
        Self {
            per_batch: per_batch.max(1),
            calibration: Calibration::new(),
            batch_cpu: Vec::new(),
            batch_scaled: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Calls `set_up` in `batches` batches, timing each call, and returns
    /// the last result (each earlier one is dropped before the next call
    /// starts). `child_cpu_ns` gives the CPU nanoseconds a result ran
    /// outside this process (a daemon child it started; 0 for none).
    ///
    /// # Errors
    ///
    /// Returns the first set-up error.
    pub fn time<T>(
        &mut self,
        batches: usize,
        mut set_up: impl FnMut() -> Result<T, String>,
        child_cpu_ns: impl Fn(&T) -> u64,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        let mut before = self.calibration.sample(SETUP_CHUNKS);
        for _ in 0..batches {
            let mut cpu = Vec::with_capacity(self.per_batch);
            for _ in 0..self.per_batch {
                drop(last.take());
                let c0 = util::process_cpu_clock_ns();
                let t0 = Instant::now();
                let done = set_up()?;
                self.wall.push(t0.elapsed().as_secs_f64());
                let c1 = util::process_cpu_clock_ns() + child_cpu_ns(&done);
                cpu.push(c1.saturating_sub(c0) as f64 / 1e9);
                last = Some(done);
            }
            let after = self.calibration.sample(SETUP_CHUNKS);
            let median = util::median(&mut cpu);
            self.batch_cpu.push(median);
            self.batch_scaled
                .push(median * speed_factor(0.5 * (before + after)));
            before = after;
        }
        Ok(last)
    }

    /// What was measured over every batch timed so far.
    pub fn times(&self) -> SetupTimes {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        SetupTimes {
            cpu_s: mean(&self.batch_scaled),
            raw_cpu_s: mean(&self.batch_cpu),
            wall_s: util::median(&mut self.wall.clone()),
            count: self.wall.len(),
        }
    }
}

/// One idle-priority spinner thread per CPU, from [`Spinners::start`] to
/// [`Spinners::finish`].
pub struct Spinners {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<bool>>,
}

impl Spinners {
    /// Starts one spinner per CPU and returns once each has started.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let n = util::nproc();
        let ready = Arc::new(Barrier::new(n + 1));
        let handles = (0..n)
            .map(|_| {
                let (flag, go) = (Arc::clone(&stop), Arc::clone(&ready));
                std::thread::spawn(move || {
                    go.wait();
                    if !set_idle_priority() {
                        return false;
                    }
                    let mut n = 0u64;
                    while !flag.load(Ordering::Relaxed) {
                        // No `pause`: a pause loop makes the hypervisor
                        // deschedule the vCPU, which is what the spinner is
                        // there to prevent.
                        for _ in 0..4096 {
                            n = black_box(n.wrapping_add(1));
                        }
                    }
                    true
                })
            })
            .collect();
        ready.wait();
        Self { stop, handles }
    }

    /// Stops and joins every spinner; returns how many ran at idle
    /// priority.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handles
            .into_iter()
            .map(|h| h.join().expect("spinner thread panicked"))
            .filter(|&idle| idle)
            .count()
    }
}
