//! Per-layer tracing from outside the program: delegating wrappers
//! around the public layer traits that time the coarse calls and count
//! the fine ones.
//!
//! Every wrapper forwards every trait method — including the event
//! engine's hints (`next_event_slot`, `next_active_slot`,
//! `skip_idle_slots`) and the interned arrival lane (`route_interner`,
//! `interned_capable`, `step_interned`, `inject_interned_into`) — so a
//! traced run takes exactly the code paths of an untraced one and
//! produces a bit-identical report. The benchmark checks that.
//!
//! Timed calls: `Protocol::step`/`step_interned`/`skip_idle_slots`,
//! `Feasibility::successes_into`, `Injector::inject_*`,
//! `StaticAlgorithm::attempts_into` and `StaticScheduler::instantiate`.
//! `StaticAlgorithm::ack` runs once per success and is only counted:
//! timing it would cost more than the call itself.
//!
//! Measurements go into a thread-local [`LayerStats`]. A scenario run is
//! single-threaded (sweep cells each run on one worker thread), so the
//! caller brackets each run with [`take`] to collect exactly that run's
//! numbers.

use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::injection::Injector;
use dps_core::invariants::InvariantViolation;
use dps_core::packet::Packet;
use dps_core::path::RoutePath;
use dps_core::protocol::{InternedArrival, Protocol, SlotOutcome};
use dps_core::route_table::{RouteId, RouteTable};
use dps_core::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::RngCore;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// What the wrappers measured on one thread since the last [`take`].
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// `Feasibility` calls.
    pub feas_calls: u64,
    /// Attempts judged by the oracle.
    pub feas_attempts: u64,
    /// Attempts the oracle let succeed.
    pub feas_successes: u64,
    /// Time inside the oracle.
    pub feas_ns: u64,
    /// `StaticScheduler::instantiate` calls.
    pub instantiate_calls: u64,
    /// Time inside `instantiate`.
    pub instantiate_ns: u64,
    /// Time inside `StaticAlgorithm::attempts_into`/`attempts`.
    pub attempts_ns: u64,
    /// `StaticAlgorithm::ack` calls.
    pub acks: u64,
    /// `Protocol::step`/`step_interned` calls.
    pub step_calls: u64,
    /// Of those, calls on the interned arrival lane.
    pub interned_steps: u64,
    /// Time inside `step`/`step_interned`.
    pub step_ns: u64,
    /// Time inside `skip_idle_slots`.
    pub skip_ns: u64,
    /// Injector calls.
    pub inject_calls: u64,
    /// Packets the injector emitted.
    pub inject_packets: u64,
    /// Time inside the injector.
    pub inject_ns: u64,
    /// Whether an injector wrapper reported a native interned lane.
    pub injector_interned: bool,
    /// Whether a protocol wrapper saw its protocol expose a route
    /// interner.
    pub protocol_interned: bool,
    /// Time building protocols and injectors and resolving `λ_max`
    /// through the traced specs.
    pub build_ns: u64,
    /// Substrate builds inside a traced job.
    pub substrate_builds: u64,
    /// Wall time of each stepped slot: injector call plus protocol step.
    pub slot_ns: Vec<u32>,
    last_inject_ns: u64,
}

impl LayerStats {
    /// Adds `other`'s counts and times to `self`.
    pub fn merge(&mut self, other: LayerStats) {
        self.feas_calls += other.feas_calls;
        self.feas_attempts += other.feas_attempts;
        self.feas_successes += other.feas_successes;
        self.feas_ns += other.feas_ns;
        self.instantiate_calls += other.instantiate_calls;
        self.instantiate_ns += other.instantiate_ns;
        self.attempts_ns += other.attempts_ns;
        self.acks += other.acks;
        self.step_calls += other.step_calls;
        self.interned_steps += other.interned_steps;
        self.step_ns += other.step_ns;
        self.skip_ns += other.skip_ns;
        self.inject_calls += other.inject_calls;
        self.inject_packets += other.inject_packets;
        self.inject_ns += other.inject_ns;
        self.injector_interned |= other.injector_interned;
        self.protocol_interned |= other.protocol_interned;
        self.build_ns += other.build_ns;
        self.substrate_builds += other.substrate_builds;
        self.slot_ns.extend(other.slot_ns);
    }
}

thread_local! {
    static STATS: RefCell<LayerStats> = RefCell::new(LayerStats::default());
}

/// Applies `f` to this thread's measurements.
pub fn record(f: impl FnOnce(&mut LayerStats)) {
    STATS.with(|stats| f(&mut stats.borrow_mut()));
}

/// Returns this thread's measurements and resets them.
pub fn take() -> LayerStats {
    STATS.with(|stats| std::mem::take(&mut *stats.borrow_mut()))
}

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs `f`, adding its wall time to the field `field` selects.
pub fn timed<R>(field: fn(&mut LayerStats) -> &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    let ns = nanos(start);
    record(|s| *field(s) += ns);
    result
}

/// A timing, counting wrapper around a feasibility oracle.
pub struct TracedFeasibility {
    inner: Arc<dyn Feasibility + Send + Sync>,
}

impl TracedFeasibility {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Feasibility + Send + Sync>) -> Self {
        TracedFeasibility { inner }
    }

    fn account(&self, attempts: usize, out: &[bool], start: Instant) {
        let ns = nanos(start);
        let successes = out.iter().filter(|&&ok| ok).count() as u64;
        record(|s| {
            s.feas_calls += 1;
            s.feas_attempts += attempts as u64;
            s.feas_successes += successes;
            s.feas_ns += ns;
        });
    }
}

impl Feasibility for TracedFeasibility {
    fn successes(&self, attempts: &[Attempt], rng: &mut dyn RngCore) -> Vec<bool> {
        let start = Instant::now();
        let out = self.inner.successes(attempts, rng);
        self.account(attempts.len(), &out, start);
        out
    }

    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore) {
        let start = Instant::now();
        self.inner.successes_into(attempts, out, rng);
        self.account(attempts.len(), out, start);
    }
}

/// A timing, counting wrapper around an injector.
pub struct TracedInjector {
    inner: Box<dyn Injector + Send>,
}

impl TracedInjector {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Injector + Send>) -> Self {
        let interned = inner.interned_capable();
        record(|s| s.injector_interned |= interned);
        TracedInjector { inner }
    }
}

fn account_injection(packets: usize, start: Instant) {
    let ns = nanos(start);
    record(|s| {
        s.inject_calls += 1;
        s.inject_packets += packets as u64;
        s.inject_ns += ns;
        s.last_inject_ns = ns;
    });
}

impl Injector for TracedInjector {
    fn inject(&mut self, slot: u64, rng: &mut dyn RngCore) -> Vec<Arc<RoutePath>> {
        let start = Instant::now();
        let out = self.inner.inject(slot, rng);
        account_injection(out.len(), start);
        out
    }

    fn inject_into(&mut self, slot: u64, rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        let start = Instant::now();
        self.inner.inject_into(slot, rng, out);
        account_injection(out.len(), start);
    }

    fn next_active_slot(&mut self, after: u64, rng: &mut dyn RngCore) -> Option<u64> {
        self.inner.next_active_slot(after, rng)
    }

    fn interned_capable(&self) -> bool {
        self.inner.interned_capable()
    }

    fn inject_interned_into(
        &mut self,
        slot: u64,
        rng: &mut dyn RngCore,
        table: &mut RouteTable,
        out: &mut Vec<RouteId>,
    ) {
        let start = Instant::now();
        self.inner.inject_interned_into(slot, rng, table, out);
        account_injection(out.len(), start);
    }
}

/// A timing wrapper around a protocol.
pub struct TracedProtocol {
    inner: Box<dyn Protocol + Send>,
}

impl TracedProtocol {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Protocol + Send>) -> Self {
        TracedProtocol { inner }
    }
}

fn account_step(interned: bool, start: Instant) {
    let ns = nanos(start);
    record(|s| {
        s.step_calls += 1;
        s.interned_steps += u64::from(interned);
        s.step_ns += ns;
        let slot_ns = ns + std::mem::take(&mut s.last_inject_ns);
        s.slot_ns.push(slot_ns.min(u64::from(u32::MAX)) as u32);
    });
}

impl Protocol for TracedProtocol {
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        let start = Instant::now();
        self.inner.step(slot, arrivals, phy, rng, out);
        account_step(false, start);
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }

    fn potential(&self) -> u64 {
        self.inner.potential()
    }

    fn next_event_slot(&self, now: u64) -> Option<u64> {
        self.inner.next_event_slot(now)
    }

    fn skip_idle_slots(&mut self, from: u64, count: u64) {
        timed(
            |s| &mut s.skip_ns,
            || self.inner.skip_idle_slots(from, count),
        );
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.inner.check_invariants()
    }

    fn route_interner(&mut self) -> Option<&mut RouteTable> {
        let table = self.inner.route_interner();
        if table.is_some() {
            record(|s| s.protocol_interned = true);
        }
        table
    }

    fn step_interned(
        &mut self,
        slot: u64,
        arrivals: &[InternedArrival],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        let start = Instant::now();
        self.inner.step_interned(slot, arrivals, phy, rng, out);
        account_step(true, start);
    }
}

/// A timing wrapper around a static scheduler; the algorithms it
/// instantiates come back wrapped in [`TracedAlgorithm`].
pub struct TracedScheduler<S> {
    inner: S,
}

impl<S> TracedScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TracedScheduler { inner }
    }
}

impl<S: StaticScheduler> StaticScheduler for TracedScheduler<S> {
    fn instantiate(
        &self,
        requests: &[Request],
        measure_bound: f64,
        rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        let start = Instant::now();
        let inner = self.inner.instantiate(requests, measure_bound, rng);
        let ns = nanos(start);
        record(|s| {
            s.instantiate_calls += 1;
            s.instantiate_ns += ns;
        });
        Box::new(TracedAlgorithm { inner, acks: 0 })
    }

    fn f_of(&self, n: usize) -> f64 {
        self.inner.f_of(n)
    }

    fn g_of(&self, n: usize) -> f64 {
        self.inner.g_of(n)
    }

    fn slots_needed(&self, measure_bound: f64, n: usize) -> usize {
        self.inner.slots_needed(measure_bound, n)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A running static algorithm whose attempt calls are timed and whose
/// acks are counted locally, then added to the thread's stats on drop.
pub struct TracedAlgorithm {
    inner: Box<dyn StaticAlgorithm>,
    acks: u64,
}

impl StaticAlgorithm for TracedAlgorithm {
    fn attempts(&mut self, rng: &mut dyn RngCore) -> Vec<usize> {
        timed(|s| &mut s.attempts_ns, || self.inner.attempts(rng))
    }

    fn attempts_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        timed(
            |s| &mut s.attempts_ns,
            || self.inner.attempts_into(rng, out),
        );
    }

    fn ack(&mut self, idx: usize) {
        self.acks += 1;
        self.inner.ack(idx);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl Drop for TracedAlgorithm {
    fn drop(&mut self) {
        let acks = self.acks;
        // The thread's stats may already be gone while a worker thread
        // shuts down; losing the count then is harmless.
        let _ = STATS.try_with(|stats| {
            if let Ok(mut stats) = stats.try_borrow_mut() {
                stats.acks += acks;
            }
        });
    }
}
