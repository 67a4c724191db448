//! Traced versions of the scenario factories: they build what the
//! declarative specs build, with the layer wrappers of [`crate::layers`]
//! spliced in, and time the builds.

use crate::layers::{self, TracedFeasibility, TracedInjector, TracedProtocol, TracedScheduler};
use dps_core::dynamic::{DynamicProtocol, FrameConfig};
use dps_core::injection::Injector;
use dps_core::staticsched::greedy::GreedyPerLink;
use dps_core::staticsched::two_stage::TwoStageDecayScheduler;
use dps_core::staticsched::uniform_rate::UniformRateScheduler;
use dps_core::staticsched::StaticScheduler;
use dps_core::transform::DenseTransform;
use dps_scenario::{
    BuiltProtocol, InjectionConfig, InjectorSpec, ProtocolConfig, ProtocolSpec, Scenario,
    ScenarioError, ScenarioSpec, Substrate,
};
use std::sync::Arc;

/// A view of `substrate` sharing every component except the
/// feasibility oracle, which is wrapped in [`TracedFeasibility`].
pub fn traced_view(substrate: &Substrate) -> Substrate {
    Substrate {
        label: substrate.label.clone(),
        num_links: substrate.num_links,
        m: substrate.m,
        model: substrate.model.clone(),
        feasibility: Arc::new(TracedFeasibility::new(substrate.feasibility.clone())),
        routes: substrate.routes.clone(),
        conflict: substrate.conflict.clone(),
        sinr_cache: substrate.sinr_cache.clone(),
        sinr_tiles: substrate.sinr_tiles.clone(),
    }
}

/// Assembles the frame protocol of `config` around a traced scheduler,
/// the way [`ProtocolConfig`] assembles it around the bare one.
#[derive(Debug)]
pub struct TracedProtocolSpec(pub ProtocolConfig);

impl TracedProtocolSpec {
    fn scheduler(
        &self,
        substrate: &Substrate,
    ) -> Result<Box<dyn StaticScheduler + Send + Sync>, ScenarioError> {
        Ok(match self.0 {
            ProtocolConfig::FrameGreedy => Box::new(GreedyPerLink::new()),
            ProtocolConfig::FrameTwoStage => Box::new(TwoStageDecayScheduler::new(substrate.m)),
            ProtocolConfig::FrameUniformTransformed { chi } => Box::new(
                DenseTransform::new(UniformRateScheduler::new(), substrate.m).with_chi(chi),
            ),
            ref other => {
                return Err(ScenarioError::spec(format!(
                    "the benchmark does not trace protocol `{}`",
                    other.label()
                )))
            }
        })
    }
}

impl ProtocolSpec for TracedProtocolSpec {
    fn label(&self) -> String {
        self.0.label()
    }

    fn lambda_max(&self, substrate: &Substrate) -> Result<f64, ScenarioError> {
        layers::timed(|s| &mut s.build_ns, || self.0.lambda_max(substrate))
    }

    fn build(
        &self,
        substrate: &Substrate,
        lambda: f64,
        provision_cap: f64,
    ) -> Result<BuiltProtocol, ScenarioError> {
        layers::timed(
            |s| &mut s.build_ns,
            || {
                let scheduler = TracedScheduler::new(self.scheduler(substrate)?);
                let lambda_max = 1.0 / scheduler.f_of(substrate.m);
                let provisioned = lambda.min(provision_cap * lambda_max);
                let config = FrameConfig::tuned(&scheduler, substrate.m, provisioned)?;
                let frame_len = config.frame_len;
                let protocol = DynamicProtocol::new(scheduler, config, substrate.num_links);
                Ok(BuiltProtocol {
                    protocol: Box::new(TracedProtocol::new(Box::new(protocol))),
                    frame_len,
                    lambda_max,
                    provisioned,
                })
            },
        )
    }
}

/// Builds `config`'s injector wrapped in [`TracedInjector`], timing the
/// build.
#[derive(Debug)]
pub struct TracedInjectorSpec(pub InjectionConfig);

impl InjectorSpec for TracedInjectorSpec {
    fn label(&self) -> String {
        self.0.label()
    }

    fn build(
        &self,
        substrate: &Substrate,
        lambda: f64,
    ) -> Result<Box<dyn Injector + Send>, ScenarioError> {
        let inner = layers::timed(|s| &mut s.build_ns, || self.0.build(substrate, lambda))?;
        Ok(Box::new(TracedInjector::new(inner)))
    }
}

/// `spec`'s scenario with its protocol and injector factories replaced by
/// their traced versions; run it on a [`traced_view`] of a substrate.
///
/// # Errors
///
/// Returns the spec's validation error.
pub fn traced_scenario(spec: &ScenarioSpec) -> Result<Scenario, ScenarioError> {
    let mut scenario = Scenario::from_spec(spec)?;
    scenario.protocol = Box::new(TracedProtocolSpec(spec.protocol.clone()));
    scenario.injector = Box::new(TracedInjectorSpec(spec.injection.clone()));
    Ok(scenario)
}
