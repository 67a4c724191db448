//! The benchmark's workloads: registry presets resized, reseeded from the
//! benchmark's `--seed`, and run through the public scenario API.

use dps_scenario::{registry, ScenarioError, ScenarioSpec, SubstrateConfig, Sweep};

/// A named workload.
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    plan: fn(seed: u64, tiny: bool) -> Result<Plan, ScenarioError>,
}

impl Workload {
    /// The workload's inputs for `seed`; `tiny` shrinks it to a smoke
    /// test's size.
    ///
    /// # Errors
    ///
    /// Propagates a registry lookup error.
    pub fn plan(&self, seed: u64, tiny: bool) -> Result<Plan, ScenarioError> {
        (self.plan)(seed, tiny)
    }
}

/// What one job of a workload runs.
pub struct Plan {
    /// The scenario.
    pub spec: ScenarioSpec,
    /// A λ × repetition grid run through [`Sweep`]; `None` runs stream 0
    /// of `spec` on a substrate built once per process.
    pub sweep: Option<SweepShape>,
}

/// The grid of a sweep workload.
pub struct SweepShape {
    /// Injection rates.
    pub lambdas: Vec<f64>,
    /// Repetitions (RNG streams) per rate.
    pub reps: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Plan {
    /// The λ values a job injects at.
    pub fn lambdas(&self) -> Vec<f64> {
        match &self.sweep {
            Some(shape) => shape.lambdas.clone(),
            None => vec![self.spec.injection.lambda],
        }
    }

    /// The sweep a job runs, for sweep workloads.
    pub fn sweep(&self) -> Option<Sweep> {
        self.sweep.as_ref().map(|shape| {
            Sweep::new(self.spec.clone())
                .over_lambdas(&shape.lambdas)
                .repetitions(shape.reps)
                .threads(shape.threads)
        })
    }
}

/// Every workload. Why each exists is recorded in `BENCHMARK.json` and
/// `README.md`.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense-sinr",
        plan: dense_sinr,
    },
    Workload {
        name: "megacity-16k",
        plan: megacity_16k,
    },
    Workload {
        name: "ring-sweep",
        plan: ring_sweep,
    },
    Workload {
        name: "conflict-transformed",
        plan: conflict_transformed,
    },
];

/// Looks up a workload by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `name`'s preset at size `m`, run for `frames` frames with its traffic
/// drawn from `seed`.
///
/// The seed picks the injections and the protocol's coin flips; the
/// topology stays the preset's own, so every seed asks for comparable
/// work and throughput spread across seeds is measurement noise, not a
/// different network.
fn preset(name: &str, m: usize, frames: u64, seed: u64) -> Result<ScenarioSpec, ScenarioError> {
    let mut spec = registry::spec_for(name)?.with_size(m).with_seed(seed);
    spec.run.frames = frames;
    Ok(spec)
}

fn dense_sinr(seed: u64, tiny: bool) -> Result<Plan, ScenarioError> {
    let (m, frames) = if tiny { (64, 3) } else { (1024, 3) };
    Ok(Plan {
        spec: preset("sinr-dense", m, frames, seed)?,
        sweep: None,
    })
}

fn megacity_16k(seed: u64, tiny: bool) -> Result<Plan, ScenarioError> {
    let mut spec = preset("sinr-megacity", if tiny { 1024 } else { 16384 }, 2, seed)?;
    if tiny {
        if let SubstrateConfig::SinrTiled { grid, .. } = &mut spec.substrate {
            *grid = 16;
        }
    }
    Ok(Plan { spec, sweep: None })
}

fn ring_sweep(seed: u64, tiny: bool) -> Result<Plan, ScenarioError> {
    let (m, frames) = if tiny { (32, 4) } else { (1024, 6) };
    Ok(Plan {
        spec: preset("ring-routing", m, frames, seed)?,
        sweep: Some(SweepShape {
            lambdas: vec![0.5, 0.9],
            reps: 2,
            threads: 2,
        }),
    })
}

fn conflict_transformed(seed: u64, tiny: bool) -> Result<Plan, ScenarioError> {
    let (m, frames) = if tiny { (32, 3) } else { (256, 20) };
    Ok(Plan {
        spec: preset("conflict-transformed", m, frames, seed)?,
        sweep: None,
    })
}
