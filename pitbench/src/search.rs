//! `search_temponet`: the three-phase PIT search (warmup, prune, finetune)
//! over TEMPONet on synthetic PPG-Dalia data at a fixed scale.
//!
//! Why this workload: it is the paper's own cost claim — the dilation
//! search costs about one training run. All of its work is in the `tensor`
//! kernels, the tape, `nas` and `nn`; no serving layer runs.
//!
//! A "step" here is one optimizer step (one mini-batch through forward,
//! backward and Adam). The run repeats the whole search on fresh networks
//! from the same seed for as long as it measures, reports the median per
//! step, and checks that every repeat learns the same dilations and
//! effective size as the first. It runs at least two searches, so the
//! check compares two independent searches even in the shortest run.

use crate::calib::{Calibration, SetupClock, SETUP_BATCHES};
use crate::probes;
use crate::report::Report;
use crate::trace::{Trace, Tracer};
use crate::util;
use pit_datasets::{PpgDaliaConfig, PpgDaliaGenerator};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::{PitConfig, PitSearch, SearchableNetwork, SizeRegularizer};
use pit_nn::{Adam, Dataset, Layer, LossKind, Mode, Optimizer};
use pit_tensor::Tape;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Reference chunks timed after each search (~20 ms, under 2% of a
/// search).
const CALIBRATION_CHUNKS: usize = 25;
/// Searches a run makes at the least, however short its `--seconds`.
const MIN_SEARCHES: usize = 2;
/// Set-ups per timed batch (~1.5 ms each); one batch follows each search.
const SETUPS_PER_BATCH: usize = 16;
/// TEMPONet channel divisor of the searched network.
const DIVISOR: usize = 4;
/// Samples per PPG-Dalia window (the network's input length).
const WINDOW: usize = 128;
/// Synthetic windows (split into train, validation and test).
const WINDOWS: usize = 256;
/// Epochs of warmup, pruning and fine-tuning.
const EPOCHS: (usize, usize, usize) = (2, 6, 2);
/// Mini-batch size.
const BATCH: usize = 32;
/// Size-regulariser strength: strong enough that this short schedule
/// prunes (learns dilations above 1), so the determinism check compares a
/// real search result.
const LAMBDA: f32 = 3e-3;
/// Step size of the γ parameters (the quick-scale value of the paper
/// experiments, which short schedules need for γ to cross 0.5).
const GAMMA_LR: f32 = 0.1;

/// The search's training data and a freshly initialised network.
pub struct Setup {
    /// Training split.
    pub train: Dataset,
    /// Validation split.
    pub val: Dataset,
    /// The seed network.
    pub net: TempoNet,
}

/// Set-up: synthesize the dataset and build the seed network.
pub fn set_up(seed: u64) -> Setup {
    let (train, val, _test) = PpgDaliaGenerator::new(PpgDaliaConfig {
        num_windows: WINDOWS,
        window_len: WINDOW,
        seed,
        ..PpgDaliaConfig::paper()
    })
    .generate_splits();
    Setup {
        train,
        val,
        net: network(seed),
    }
}

/// A fresh seed network for `seed`.
fn network(seed: u64) -> TempoNet {
    let mut rng = StdRng::seed_from_u64(seed);
    TempoNet::new(&mut rng, &TempoNetConfig::scaled(DIVISOR, WINDOW))
}

/// The search configuration for `seed`.
fn config(seed: u64) -> PitConfig {
    PitConfig {
        warmup_epochs: EPOCHS.0,
        search_epochs: EPOCHS.1,
        finetune_epochs: EPOCHS.2,
        batch_size: BATCH,
        lambda: LAMBDA,
        gamma_learning_rate: GAMMA_LR,
        seed,
        ..PitConfig::default()
    }
}

/// One search's outcome and cost.
struct Searched {
    /// Learned dilations.
    pub dilations: Vec<usize>,
    /// Weights of the pruned network.
    pub effective_params: usize,
    /// Optimizer steps the search took.
    pub steps: usize,
    /// Wall seconds of `PitSearch::run`.
    pub wall_s: f64,
    /// Process CPU seconds of the same call.
    pub cpu_s: f64,
    /// Per-phase wall seconds (warmup, prune, finetune).
    pub phases: (f64, f64, f64),
}

/// Runs one search on `net`.
fn search(seed: u64, net: &TempoNet, train: &Dataset, val: &Dataset) -> Searched {
    let cpu0 = util::process_cpu_clock_ns();
    let t0 = Instant::now();
    let outcome = PitSearch::new(config(seed)).run(net, train, val, LossKind::Mae);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = util::process_cpu_clock_ns().saturating_sub(cpu0) as f64 / 1e9;
    let (w, s, f) = outcome.epochs_run;
    Searched {
        dilations: outcome.dilations,
        effective_params: outcome.effective_params,
        steps: (w + s + f) * train.len().div_ceil(BATCH),
        wall_s,
        cpu_s,
        phases: (
            outcome.timings.warmup.as_secs_f64(),
            outcome.timings.search.as_secs_f64(),
            outcome.timings.finetune.as_secs_f64(),
        ),
    }
}

/// Counts the check that search `id` learned the same dilations and
/// effective parameter count as the run's `reference` search, failing it
/// in `report` when they differ.
pub fn check_same_result(
    report: &mut Report,
    id: usize,
    (dilations, params): (&[usize], usize),
    (ref_dilations, ref_params): (&[usize], usize),
) {
    report.check(dilations == ref_dilations && params == ref_params, || {
        format!("search {id}: dilations {dilations:?} / {params} params, the seed's reference gives {ref_dilations:?} / {ref_params}")
    });
}

/// Runs the workload; fills `report` and `trace`.
pub fn run(
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<(), String> {
    let mut setups = SetupClock::new(SETUPS_PER_BATCH);
    let Setup {
        train,
        val,
        mut net,
    } = setups
        .time(SETUP_BATCHES, || Ok(set_up(seed)), |_| 0)?
        .expect("at least one set-up");

    let mut calibration = Calibration::new();
    let start = Instant::now();
    let mut runs: Vec<Searched> = Vec::new();
    while runs.len() < MIN_SEARCHES || start.elapsed().as_secs_f64() < seconds as f64 {
        if !runs.is_empty() {
            net = network(seed);
        }
        let t0 = Instant::now();
        let done = search(seed, &net, &train, &val);
        calibration.sample(CALIBRATION_CHUNKS);
        setups.time(1, || Ok(set_up(seed)), |_| 0)?;
        let id = runs.len();
        if let Some(root) = trace.record(tracer, "nas.search", id as u64, t0, None) {
            // The phases run back to back inside the search call.
            let mut at = t0;
            for (name, secs) in [
                ("nas.phase.warmup", done.phases.0),
                ("nas.phase.prune", done.phases.1),
                ("nas.phase.finetune", done.phases.2),
            ] {
                let end = at + std::time::Duration::from_secs_f64(secs);
                trace
                    .spans
                    .push(tracer.span(name, id as u64, at, end, Some(root)));
                at = end;
            }
        }
        if let Some(reference) = runs.first() {
            check_same_result(
                report,
                id,
                (&done.dilations, done.effective_params),
                (&reference.dilations, reference.effective_params),
            );
        }
        runs.push(done);
    }
    let factor = report.record_host(calibration.median_ns(), calibration.chunks());
    report.record_setups(&setups);

    let per_step = |f: &dyn Fn(&Searched) -> f64| -> f64 {
        let mut v: Vec<f64> = runs.iter().map(f).collect();
        util::median(&mut v)
    };
    report.e2e_scaled(
        "step_p50_us",
        "raw.step_p50_us",
        per_step(&|r| r.wall_s * 1e6 / r.steps as f64),
        factor,
    );
    report.e2e_scaled(
        "cpu_ns_per_step",
        "raw.cpu_ns_per_step",
        per_step(&|r| r.cpu_s * 1e9 / r.steps as f64),
        factor,
    );
    report.e2e("peak_rss_mb", util::peak_rss_mb(std::process::id()));
    report.layer("nas.search_s", per_step(&|r| r.wall_s));
    report.layer("nas.search_cpu_s", per_step(&|r| r.cpu_s));
    report.layer("nas.phase.warmup_s", per_step(&|r| r.phases.0));
    report.layer("nas.phase.prune_s", per_step(&|r| r.phases.1));
    report.layer("nas.phase.finetune_s", per_step(&|r| r.phases.2));
    report.layer("nas.effective_params", runs[0].effective_params as f64);
    if tracer.on() {
        let t0 = Instant::now();
        let (fwd, bwd, reg, adam) = layer_costs(seed, 10);
        report.layer("tensor.tape.forward_ms_per_batch", fwd);
        report.layer("tensor.tape.backward_ms_per_batch", bwd);
        report.layer("nas.regularizer_ms_per_batch", reg);
        report.layer("nn.adam_step_ms", adam);
        let shapes: Vec<(usize, usize, usize)> = network(seed)
            .pit_layers()
            .iter()
            .map(|l| (l.in_channels(), l.out_channels(), l.rf_max()))
            .collect();
        let (fwd, grad) = probes::conv1d_gflops(&shapes, BATCH, WINDOW);
        report.layer("tensor.kernels.conv1d_fwd_gflops", fwd);
        report.layer("tensor.kernels.conv1d_grad_gflops", grad);
        trace.record(tracer, "probe.tensor", 0, t0, None);
    }
    report.health("searches", runs.len());
    report.health("dilations", format!("{:?}", runs[0].dilations));
    report.health("optimizer_steps_per_search", runs[0].steps);
    Ok(())
}

/// Per-batch costs of the layers the search loop calls, on one training
/// batch of a fresh network: `(forward ms, backward ms, regularizer ms,
/// Adam step ms)`, each the median of `reps` repetitions.
fn layer_costs(seed: u64, reps: usize) -> (f64, f64, f64, f64) {
    let s = set_up(seed);
    let batch = s.train.batches::<StdRng>(BATCH, None).swap_remove(0);
    let reg = SizeRegularizer::new(config(seed).lambda);
    let mut opt = Adam::new(s.net.params(), config(seed).learning_rate);
    let (mut fwd, mut bwd, mut regs, mut adam) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        opt.zero_grad();
        let mut tape = Tape::new();
        let t0 = Instant::now();
        let x = tape.constant(batch.inputs.clone());
        let pred = s.net.forward(&mut tape, x, Mode::Train);
        let task = LossKind::Mae.apply(&mut tape, pred, &batch.targets);
        fwd.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let r = reg.term(&mut tape, &s.net.pit_layers());
        regs.push(t1.elapsed().as_secs_f64() * 1e3);
        let total = tape.add(task, r);
        let t2 = Instant::now();
        tape.backward(total);
        bwd.push(t2.elapsed().as_secs_f64() * 1e3);
        let t3 = Instant::now();
        opt.step();
        adam.push(t3.elapsed().as_secs_f64() * 1e3);
    }
    (
        util::median(&mut fwd),
        util::median(&mut bwd),
        util::median(&mut regs),
        util::median(&mut adam),
    )
}
