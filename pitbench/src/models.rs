//! The served models: TEMPONet/8 streaming plans built from a seed, their
//! int8 quantization, and the `pit-zoo/1` libraries the daemon boots from.

use pit_infer::{compile_temponet, InferencePlan, QuantizedPlan, ZooEntry, ZooManifest};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Input channels of every served model: PPG-Dalia's PPG plus 3-axis
/// accelerometer.
pub const CHANNELS: usize = 4;
/// TEMPONet channel divisor of the served models ("TEMPONet/8").
const DIVISOR: usize = 8;
/// Input window the served TEMPONet was shaped for.
const WINDOW: usize = 64;
/// Calibration windows fed to int8 quantization.
const CALIBRATION_WINDOWS: usize = 4;

/// Compiles a TEMPONet/8 with weights drawn from `seed` and the given
/// dilations (the hand-tuned ones when `None`) into a streaming plan.
pub fn temponet_plan(seed: u64, name: &str, dilations: Option<&[usize]>) -> InferencePlan {
    let cfg = TempoNetConfig::scaled(DIVISOR, WINDOW);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = TempoNet::new(&mut rng, &cfg);
    match dilations {
        Some(d) => net.set_dilations(d),
        None => net.set_dilations(&cfg.hand_tuned_dilations()),
    }
    compile_temponet(&net).with_name(name)
}

/// Quantizes `plan` to int8 on calibration windows drawn from `seed`.
///
/// # Errors
///
/// Returns the quantizer's message when calibration fails.
pub fn quantize(plan: &InferencePlan, seed: u64) -> Result<QuantizedPlan, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA11);
    let windows: Vec<Tensor> = (0..CALIBRATION_WINDOWS)
        .map(|_| init::uniform(&mut rng, &[1, CHANNELS, WINDOW], 1.0))
        .collect();
    QuantizedPlan::quantize(plan, &windows)
}

/// One artifact to put in a zoo.
pub enum ZooModel<'a> {
    /// An f32 plan.
    F32(&'a InferencePlan),
    /// An int8 plan.
    I8(&'a QuantizedPlan),
}

/// Writes every model's `pit-arch/2` artifact and a `pit-zoo/1` manifest
/// (default: the first model) into `dir`; returns the manifest's path.
///
/// # Errors
///
/// Returns a message when a file cannot be written.
pub fn write_zoo(dir: &Path, models: &[ZooModel<'_>]) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut entries = Vec::with_capacity(models.len());
    for model in models {
        let (name, kind, text, rf, error_bound, channels, dim) = match model {
            ZooModel::F32(p) => (
                p.name(),
                "f32",
                p.to_artifact_string(),
                p.receptive_field(),
                0.0,
                p.input_channels(),
                p.output_dim(),
            ),
            ZooModel::I8(q) => (
                q.name(),
                "i8",
                q.to_artifact_string(),
                q.receptive_field(),
                q.error_bound(),
                q.input_channels(),
                q.output_dim(),
            ),
        };
        let file = format!("{name}.pit2.json");
        std::fs::write(dir.join(&file), text).map_err(|e| format!("cannot write {file}: {e}"))?;
        entries.push(ZooEntry {
            name: name.to_string(),
            path: file,
            kind: kind.into(),
            seed: 0,
            lambda: 0.0,
            params: 0,
            receptive_field: rf,
            val_loss: 0.0,
            error_bound,
            input_channels: channels,
            output_dim: dim,
        });
    }
    let default = entries
        .first()
        .map(|e| e.name.clone())
        .ok_or("a zoo needs at least one model")?;
    ZooManifest::new(default, entries)?.save(dir)
}
