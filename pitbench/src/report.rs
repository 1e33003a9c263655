//! What one run measured, and the result line the benchmark prints.

use crate::calib::{self, SetupClock};
use pit_tensor::json::Json;
use std::fmt::Write as _;

/// End-to-end metrics, as BENCHMARK.json lists them: every workload reports
/// each one (see METRICS.md for what a "step" is on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_p50_us", "us"),
    ("cpu_ns_per_step", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as BENCHMARK.json lists them. A traced run prints all
/// of them; a layer a workload does not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("driver.send_lag_p50_us", "us"),
    ("driver.send_lag_p99_us", "us"),
    ("driver.cpu_ns_per_step", "ns"),
    ("host.steal_pct", "%"),
    ("host.ref_chunk_ns", "ns"),
    ("host.speed_factor", "x"),
    ("raw.setup_s", "s"),
    ("raw.setup_wall_s", "s"),
    ("raw.step_p50_us", "us"),
    ("raw.cpu_ns_per_step", "ns"),
    ("serve.open_p50_us", "us"),
    ("serve.step_p99_us", "us"),
    ("serve.step_p999_us", "us"),
    ("serve.step_samples", "count"),
    ("serve.wave_occupancy", "streams"),
    ("serve.waves_per_s", "1/s"),
    ("serve.wave_p50_us", "us"),
    ("serve.wave_p99_us", "us"),
    ("serve.frames_rejected", "count"),
    ("serve.replies_dropped", "count"),
    ("serve.outbuf_hwm_bytes", "bytes"),
    ("serve.overhead_ns_per_step", "ns"),
    ("serve.protocol.decode_client_ns_per_frame", "ns"),
    ("serve.protocol.encode_server_ns_per_frame", "ns"),
    ("serve.protocol.encode_client_ns_per_frame", "ns"),
    ("serve.protocol.decode_server_ns_per_frame", "ns"),
    ("serve.protocol.ping_rtt_p50_us", "us"),
    ("infer.i8.wave_ns_per_step", "ns"),
    ("infer.i8.solo_step_ns", "ns"),
    ("infer.f32.wave_ns_per_step", "ns"),
    ("infer.i8.open_close_ns", "ns"),
    ("infer.f32.open_close_ns", "ns"),
    ("infer.zoo_load_ms", "ms"),
    ("infer.quantize_ms", "ms"),
    ("tensor.kernels.gemm_i8_gops", "Gop/s"),
    ("tensor.kernels.conv1d_fwd_gflops", "GFLOP/s"),
    ("tensor.kernels.conv1d_grad_gflops", "GFLOP/s"),
    ("tensor.tape.forward_ms_per_batch", "ms"),
    ("tensor.tape.backward_ms_per_batch", "ms"),
    ("nas.phase.warmup_s", "s"),
    ("nas.phase.prune_s", "s"),
    ("nas.phase.finetune_s", "s"),
    ("nas.search_s", "s"),
    ("nas.search_cpu_s", "s"),
    ("nas.regularizer_ms_per_batch", "ms"),
    ("nas.effective_params", "count"),
    ("nn.adam_step_ms", "ms"),
    ("replay.workload.generate_ms", "ms"),
    ("trace.overhead_step_p50_pct", "%"),
    ("trace.overhead_cpu_pct", "%"),
];

/// One run's measurements and verdict.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: frames sent, oracle and reconciliation checks,
    /// searches.
    pub attempted: u64,
    /// Operations that failed (see METRICS.md).
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// End-to-end values by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values by name.
    pub layer: Vec<(&'static str, f64)>,
    /// Run-health and context fields.
    pub health: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Counts one checked operation, failing it with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layer.push((name, value));
    }

    /// Sets an end-to-end value.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.e2e.push((name, value));
    }

    /// Adds a run-health or context field.
    pub fn health(&mut self, name: &'static str, value: impl ToString) {
        self.health.push((name, value.to_string()));
    }

    /// Records the median reference chunk time `ref_chunk_ns` next to the
    /// measured work (over `chunks` chunks) and returns the speed factor it
    /// gives ([`calib::speed_factor`]).
    pub fn record_host(&mut self, ref_chunk_ns: f64, chunks: usize) -> f64 {
        let factor = calib::speed_factor(ref_chunk_ns);
        self.layer("host.ref_chunk_ns", ref_chunk_ns);
        self.layer("host.speed_factor", factor);
        self.health("calibration_chunks", chunks);
        factor
    }

    /// Sets the time-valued end-to-end metric `name` to `raw` scaled by
    /// `factor` to the reference speed, and keeps `raw` as the per-layer
    /// metric `raw_name`.
    pub fn e2e_scaled(
        &mut self,
        name: &'static str,
        raw_name: &'static str,
        raw: f64,
        factor: f64,
    ) {
        self.layer(raw_name, raw);
        self.e2e(name, raw * factor);
    }

    /// Sets `setup_s` from the set-ups `clock` timed (see
    /// [`SetupClock`]), and keeps the unscaled CPU and the wall medians as
    /// per-layer metrics.
    pub fn record_setups(&mut self, clock: &SetupClock) {
        let t = clock.times();
        self.layer("raw.setup_s", t.raw_cpu_s);
        self.layer("raw.setup_wall_s", t.wall_s);
        self.e2e("setup_s", t.cpu_s);
        self.health("setups_timed", t.count);
    }

    /// The value last recorded under `name`, end-to-end or per-layer.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layer)
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: end-to-end metrics, or every per-layer metric when
    /// `traced`.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The whole run as a JSON document: verdict, fail ratio, every
    /// end-to-end and per-layer value, the run-health fields and the
    /// failures.
    pub fn to_json(&self) -> Json {
        let values = |list: &[(&'static str, f64)]| {
            Json::Obj(
                list.iter()
                    .map(|(n, v)| (n.to_string(), Json::Num(*v)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str("pitbench-result/1".into())),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "fail_ratio".into(),
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("end_to_end".into(), values(&self.e2e)),
            ("per_layer".into(), values(&self.layer)),
            (
                "health".into(),
                Json::Obj(
                    self.health
                        .iter()
                        .map(|(n, v)| (n.to_string(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// A human-readable summary for stderr.
    pub fn summary(&self, workload: &str) -> String {
        let mut s = format!("pitbench {workload}\n");
        for (name, unit) in END_TO_END {
            if let Some(v) = self.get(name) {
                let _ = writeln!(s, "  {name:<44} {v:>14.3} {unit}");
            }
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = self
                .layer
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|x| x.1)
            {
                let _ = writeln!(s, "  {name:<44} {v:>14.3} {unit}");
            }
        }
        for (name, value) in &self.health {
            let _ = writeln!(s, "  health.{name:<37} {value}");
        }
        let _ = writeln!(
            s,
            "  attempted {} failed {} fail_ratio {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(s, "  FAIL {f}");
        }
        s
    }
}
