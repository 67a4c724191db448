//! One benchmark run of one workload: set-up, timed jobs (the first is
//! the reference the others must reproduce), correctness checks, and the
//! metrics.

use crate::layers::{self, LayerStats};
use crate::specs::{traced_scenario, traced_view};
use crate::workloads::{Plan, Workload};
use dps_scenario::{Scenario, ScenarioError, Substrate, SubstrateSpec};
use dps_sim::runner::SimulationReport;
use dps_sinr::tiles::TileDiagnostics;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Command-line options of a run.
pub struct Options {
    /// Seed the workload's inputs are drawn from.
    pub seed: u64,
    /// Seconds of timed jobs.
    pub seconds: f64,
    /// Report per-layer metrics from traced jobs instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Shrink the workload to a smoke test's size.
    pub tiny: bool,
}

/// A metric as printed.
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct Outcome {
    /// The metrics of the selected kind.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Cells run, traced jobs' cells included.
    pub attempted: u64,
    /// Cells that errored, panicked or failed a check.
    pub failed: u64,
}

/// Set-up repetitions: at least `MIN_SETUPS`, more while less than
/// `SETUP_TARGET_S` seconds were measured, never more than `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const SETUP_TARGET_S: f64 = 0.5;
const MAX_SETUPS: usize = 200;

/// The substrate jobs share, and the set-up timings (one entry per
/// repetition).
struct Setup {
    substrate: Arc<Substrate>,
    total_s: Vec<f64>,
    substrate_s: Vec<f64>,
    injector_s: Vec<f64>,
}

/// Builds the substrate, resolves `λ_max` and builds protocol and
/// injector for every rate a job injects at — repeatedly, keeping the
/// last substrate.
fn set_up(scenario: &Scenario, plan: &Plan) -> Result<Setup, ScenarioError> {
    let lambdas = plan.lambdas();
    let started = Instant::now();
    let mut substrate = None;
    let (mut total_s, mut substrate_s, mut injector_s) = (Vec::new(), Vec::new(), Vec::new());
    while total_s.len() < MIN_SETUPS
        || (started.elapsed().as_secs_f64() < SETUP_TARGET_S && total_s.len() < MAX_SETUPS)
    {
        // Free the previous build first: peak memory holds one substrate.
        drop(substrate.take());
        let start = Instant::now();
        let built = scenario.build_substrate()?;
        substrate_s.push(start.elapsed().as_secs_f64());
        let mut injector = 0.0;
        for &lambda in &lambdas {
            let lambda_max = scenario.protocol.lambda_max(&built)?;
            let lambda = if scenario.relative_lambda {
                lambda * lambda_max
            } else {
                lambda
            };
            black_box(
                scenario
                    .protocol
                    .build(&built, lambda, scenario.run.provision_cap)?,
            );
            let start = Instant::now();
            black_box(scenario.injector.build(&built, lambda)?);
            injector += start.elapsed().as_secs_f64();
        }
        injector_s.push(injector);
        total_s.push(start.elapsed().as_secs_f64());
        substrate = Some(built);
    }
    Ok(Setup {
        substrate: substrate.expect("at least one set-up ran"),
        total_s,
        substrate_s,
        injector_s,
    })
}

/// One executed job: the reports of its cells and what it cost.
struct Job {
    /// The cells' reports; dropped once a timed job passed its checks,
    /// so memory holds the reference job and the job in flight only.
    reports: Vec<SimulationReport>,
    wall_s: f64,
    /// Slots simulated (stepped and skipped), skipped slots and
    /// deliveries, over all cells.
    slots: u64,
    skipped: u64,
    delivered: u64,
    /// Traced jobs only: per-cell wall times, worker threads, the
    /// merged layer stats and the tile-diagnostics delta.
    cell_walls: Vec<f64>,
    threads: usize,
    stats: LayerStats,
    tiles: Option<TileDiagnostics>,
}

/// Runs one job through the public API, untouched by any wrapper.
fn untraced_job(
    plan: &Plan,
    scenario: &Scenario,
    substrate: &Arc<Substrate>,
) -> Result<Job, ScenarioError> {
    let start = Instant::now();
    let reports = match plan.sweep() {
        Some(sweep) => sweep
            .run()?
            .cells
            .into_iter()
            .map(|cell| cell.outcome.report)
            .collect(),
        None => vec![scenario.run_stream_on(substrate, 0)?.report],
    };
    Ok(Job::new(reports, start.elapsed().as_secs_f64()))
}

impl Job {
    fn new(reports: Vec<SimulationReport>, wall_s: f64) -> Job {
        Job {
            slots: reports.iter().map(|r| r.slots).sum(),
            skipped: reports.iter().map(|r| r.idle_slots_skipped).sum(),
            delivered: reports.iter().map(|r| r.delivered).sum(),
            reports,
            wall_s,
            cell_walls: Vec::new(),
            threads: 1,
            stats: LayerStats::default(),
            tiles: None,
        }
    }
}

/// Runs the same job with every layer wrapped. A sweep job replays the
/// grid [`dps_scenario::Sweep`] runs — its points, in its order, on one
/// freshly built shared substrate — because `Sweep` builds its
/// scenarios from declarative specs the wrappers cannot enter.
fn traced_job(plan: &Plan, substrate: &Arc<Substrate>) -> Result<Job, ScenarioError> {
    layers::take();
    let tiles_before = substrate.sinr_tiles.as_ref().map(|t| t.diagnostics());
    let start = Instant::now();
    let (cells, threads, shared) = match plan.sweep() {
        Some(sweep) => {
            let cells: Vec<(f64, u64, u64)> = sweep
                .points()
                .iter()
                .map(|p| (p.lambda, p.seed, p.rep))
                .collect();
            let threads = plan.sweep.as_ref().map_or(1, |shape| shape.threads);
            let built = plan.spec.substrate.build()?;
            layers::record(|s| s.substrate_builds += 1);
            (cells, threads, Arc::new(traced_view(&built)))
        }
        None => {
            let cell = (plan.spec.injection.lambda, plan.spec.run.seed, 0);
            (vec![cell], 1, Arc::new(traced_view(substrate)))
        }
    };
    let mut stats = layers::take();
    let results = dps_sim::parallel::parallel_map(cells.len(), threads, |i| {
        let (lambda, seed, rep) = cells[i];
        layers::take();
        let start = Instant::now();
        let spec = plan.spec.clone().with_lambda(lambda).with_seed(seed);
        let outcome = traced_scenario(&spec).and_then(|s| s.run_stream_on(&shared, rep));
        (outcome, start.elapsed().as_secs_f64(), layers::take())
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut reports = Vec::new();
    let mut cell_walls = Vec::new();
    for (outcome, wall, cell_stats) in results {
        let report = outcome?.report;
        check_lane(&cell_stats)?;
        stats.merge(cell_stats);
        reports.push(report);
        cell_walls.push(wall);
    }
    let tiles = substrate
        .sinr_tiles
        .as_ref()
        .zip(tiles_before)
        .map(|(t, before)| tiles_delta(&before, &t.diagnostics()));
    Ok(Job {
        cell_walls,
        threads,
        stats,
        tiles,
        ..Job::new(reports, wall_s)
    })
}

/// The interned arrival lane must be taken exactly when both injector and
/// protocol offer it — proof that the wrappers forward `interned_capable`,
/// `route_interner` and `step_interned`.
fn check_lane(stats: &LayerStats) -> Result<(), ScenarioError> {
    let expected = stats.injector_interned && stats.protocol_interned;
    let taken = if expected { stats.step_calls } else { 0 };
    if stats.interned_steps == taken {
        Ok(())
    } else {
        Err(ScenarioError::spec(format!(
            "traced run took the interned lane on {} of {} steps, expected {taken}",
            stats.interned_steps, stats.step_calls
        )))
    }
}

fn tiles_delta(before: &TileDiagnostics, after: &TileDiagnostics) -> TileDiagnostics {
    let diff = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(a, b)| a - b).collect();
    TileDiagnostics {
        slots: after.slots - before.slots,
        level_tiles_per_side: after.level_tiles_per_side.clone(),
        tiles_visited_per_level: diff(
            &after.tiles_visited_per_level,
            &before.tiles_visited_per_level,
        ),
        far_terms_per_level: diff(&after.far_terms_per_level, &before.far_terms_per_level),
        near_terms: after.near_terms - before.near_terms,
        panel_hits: after.panel_hits - before.panel_hits,
        panel_misses: after.panel_misses - before.panel_misses,
        panel_evictions: after.panel_evictions - before.panel_evictions,
        panel_resident_bytes: after.panel_resident_bytes,
        panel_high_water_bytes: after.panel_high_water_bytes,
    }
}

/// The diagnostics of a workload without a tiled oracle: all zero.
fn no_tiles() -> TileDiagnostics {
    TileDiagnostics {
        slots: 0,
        level_tiles_per_side: Vec::new(),
        tiles_visited_per_level: Vec::new(),
        far_terms_per_level: Vec::new(),
        near_terms: 0,
        panel_hits: 0,
        panel_misses: 0,
        panel_evictions: 0,
        panel_resident_bytes: 0,
        panel_high_water_bytes: 0,
    }
}

/// FNV-1a over every field of a report.
fn fingerprint(report: &SimulationReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |x: u64| {
        for byte in x.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    word(report.injected);
    word(report.delivered);
    word(report.backlog_series.len() as u64);
    for &(slot, backlog) in &report.backlog_series {
        word(slot);
        word(backlog as u64);
    }
    word(report.final_backlog as u64);
    word(report.latencies.len() as u64);
    report.latencies.iter().for_each(|&l| word(l));
    report.path_lens.iter().for_each(|&l| word(l as u64));
    word(report.potential.len() as u64);
    report.potential.samples().iter().for_each(|&p| word(p));
    word(report.attempts);
    word(report.successes);
    word(report.slots);
    word(report.idle_slots_skipped);
    hash
}

/// Packet conservation and report consistency.
fn check_report(report: &SimulationReport) -> Result<(), String> {
    if report.delivered + report.final_backlog as u64 != report.injected {
        return Err(format!(
            "packet conservation: delivered {} + backlog {} != injected {}",
            report.delivered, report.final_backlog, report.injected
        ));
    }
    if report.latencies.len() as u64 != report.delivered {
        return Err(format!(
            "{} latencies for {} deliveries",
            report.latencies.len(),
            report.delivered
        ));
    }
    Ok(())
}

/// Runs `job`, catching errors and panics, and checks every cell against
/// the reference fingerprints (when given). Returns the job if every cell
/// passed; counts cells and failures either way.
fn checked(
    job: impl FnOnce() -> Result<Job, ScenarioError>,
    reference: Option<&[u64]>,
    counts: &mut (u64, u64),
    notes: &mut Vec<String>,
) -> Option<Job> {
    let cells = reference.map_or(1, |r| r.len() as u64);
    let mut job = match catch_unwind(AssertUnwindSafe(job)) {
        Ok(Ok(job)) => job,
        Ok(Err(err)) => {
            notes.push(format!("error: {err}"));
            *counts = (counts.0 + cells, counts.1 + cells);
            return None;
        }
        Err(_) => {
            notes.push("error: job panicked".into());
            *counts = (counts.0 + cells, counts.1 + cells);
            return None;
        }
    };
    let mut failed = 0u64;
    for (i, report) in job.reports.iter().enumerate() {
        let verdict = check_report(report).and_then(|()| match reference {
            Some(expected) if expected.get(i) != Some(&fingerprint(report)) => Err(format!(
                "cell {i}: report differs from the reference run (fingerprint {:016x})",
                fingerprint(report)
            )),
            _ => Ok(()),
        });
        if let Err(msg) = verdict {
            notes.push(format!("check failed: {msg}"));
            failed += 1;
        }
    }
    let expected_cells = reference.map_or(job.reports.len(), <[u64]>::len);
    let missing = expected_cells.saturating_sub(job.reports.len()) as u64;
    let attempted = job.reports.len().max(expected_cells) as u64;
    *counts = (counts.0 + attempted, counts.1 + failed + missing);
    if reference.is_some() {
        job.reports = Vec::new();
    }
    (failed + missing == 0).then_some(job)
}

/// Runs `workload` as `opts` ask.
///
/// # Errors
///
/// Returns an error when the workload cannot be set up or its reference
/// job fails; every later failure is counted instead.
pub fn run(workload: &Workload, opts: &Options) -> Result<Outcome, String> {
    let plan = workload
        .plan(opts.seed, opts.tiny)
        .map_err(|e| e.to_string())?;
    let scenario = Scenario::from_spec(&plan.spec).map_err(|e| e.to_string())?;
    let setup = set_up(&scenario, &plan).map_err(|e| format!("set-up failed: {e}"))?;
    let mut notes = vec![format!(
        "set-up: {} repetitions, median {:.4} s",
        setup.total_s.len(),
        median(&setup.total_s)
    )];
    let mut counts = (0u64, 0u64);

    // The first job is timed like the others and is the reference every
    // later job — traced or not — must reproduce bit for bit. Its cold
    // panel cache costs less than the noise between jobs.
    let started = Instant::now();
    let mut first = checked(
        || untraced_job(&plan, &scenario, &setup.substrate),
        None,
        &mut counts,
        &mut notes,
    )
    .ok_or_else(|| format!("reference job failed: {}", notes.join("; ")))?;
    let reference: Vec<u64> = first.reports.iter().map(fingerprint).collect();
    let sim = SimSummary::of(&first.reports);
    // Set-up plus one job: later jobs repeat the same work.
    let peak_rss = peak_rss_mib();
    first.reports = Vec::new();
    let job_print = reference.iter().fold(0u64, |h, &f| h.rotate_left(5) ^ f);
    notes.push(format!(
        "fingerprint {} seed {} {job_print:016x} ({} cells)",
        workload.name,
        opts.seed,
        reference.len()
    ));
    notes.push(format!(
        "latency samples: {} delivered packets ({} beyond p99)",
        sim.latency_samples,
        sim.latency_samples / 100
    ));

    // Jobs run until the next round would end past `--seconds`; a round
    // is one untraced job, plus one traced job when tracing.
    let mut untraced = vec![first];
    let mut traced = Vec::new();
    let mut round_s = started.elapsed().as_secs_f64();
    loop {
        let round = Instant::now();
        if opts.trace {
            let job = checked(
                || traced_job(&plan, &setup.substrate),
                Some(&reference),
                &mut counts,
                &mut notes,
            );
            traced.extend(job);
            round_s += round.elapsed().as_secs_f64();
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + round_s > opts.seconds {
            break;
        }
        let round = Instant::now();
        let job = checked(
            || untraced_job(&plan, &scenario, &setup.substrate),
            Some(&reference),
            &mut counts,
            &mut notes,
        );
        untraced.extend(job);
        round_s = round.elapsed().as_secs_f64();
    }
    if untraced.is_empty() || (opts.trace && traced.is_empty()) {
        return Err(format!("every timed job failed: {}", notes.join("; ")));
    }
    let walls: Vec<f64> = untraced.iter().map(|j| j.wall_s).collect();
    notes.push(format!(
        "timed jobs: {} untraced, {} traced; untraced wall min {:.4} median {:.4} max {:.4} s",
        untraced.len(),
        traced.len(),
        percentile(&walls, 0.0),
        median(&walls),
        percentile(&walls, 1.0)
    ));
    let metrics = if opts.trace {
        let overhead = median_wall(&traced) / median_wall(&untraced) - 1.0;
        let job = &traced[median_index(&traced)];
        layer_metrics(&setup, job, overhead)
    } else {
        end_to_end_metrics(&setup, &sim, peak_rss, &untraced)
    };
    Ok(Outcome {
        metrics,
        notes,
        attempted: counts.0,
        failed: counts.1,
    })
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q`-quantile of `xs`, linearly interpolated between order
/// statistics (0 for an empty slice).
fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median_wall(jobs: &[Job]) -> f64 {
    median(&jobs.iter().map(|j| j.wall_s).collect::<Vec<_>>())
}

/// Index of the job with the median wall time.
fn median_index(jobs: &[Job]) -> usize {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].wall_s.total_cmp(&jobs[b].wall_s));
    order[order.len() / 2]
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What the reference job simulated, summarized before its reports are
/// dropped.
struct SimSummary {
    latency_p50: f64,
    latency_p99: f64,
    latency_samples: usize,
    delivery_ratio: f64,
}

impl SimSummary {
    fn of(reports: &[SimulationReport]) -> SimSummary {
        let mut latencies: Vec<u64> = reports
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        latencies.sort_unstable();
        let injected: u64 = reports.iter().map(|r| r.injected).sum();
        let delivered: u64 = reports.iter().map(|r| r.delivered).sum();
        SimSummary {
            latency_p50: mid_quantile(&latencies, 0.5),
            latency_p99: mid_quantile(&latencies, 0.99),
            latency_samples: latencies.len(),
            delivery_ratio: delivered as f64 / injected.max(1) as f64,
        }
    }
}

/// The `q`-quantile of the mid-distribution function of `sorted`: each
/// distinct value sits at the middle of its block of ties in the
/// empirical distribution, and quantiles interpolate linearly between
/// those points. Latencies are whole slots with long runs of ties; this
/// estimator moves with the tie counts instead of snapping to a slot.
fn mid_quantile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut start = 0;
    while start < sorted.len() {
        let value = sorted[start];
        let end = start + sorted[start..].partition_point(|&x| x == value);
        points.push((value as f64, (start + end) as f64 / 2.0 / n));
        start = end;
    }
    let k = points.partition_point(|&(_, cdf)| cdf < q);
    match (k.checked_sub(1).map(|i| points[i]), points.get(k)) {
        (Some((v0, c0)), Some(&(v1, c1))) => v0 + (v1 - v0) * (q - c0) / (c1 - c0),
        (None, Some(&(v, _))) | (Some((v, _)), None) => v,
        (None, None) => 0.0,
    }
}

fn end_to_end_metrics(
    setup: &Setup,
    sim: &SimSummary,
    peak_rss_mib: f64,
    jobs: &[Job],
) -> Vec<Metric> {
    let per_second = |count: fn(&Job) -> u64| {
        let rates: Vec<f64> = jobs.iter().map(|j| count(j) as f64 / j.wall_s).collect();
        median(&rates)
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", median(&setup.total_s), "s"),
        m("slots_per_s", per_second(|j| j.slots), "1/s"),
        m("delivered_per_s", per_second(|j| j.delivered), "1/s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
        m("latency_p50_slots", sim.latency_p50, "slots"),
        m("latency_p99_slots", sim.latency_p99, "slots"),
        m("delivery_ratio", sim.delivery_ratio, "ratio"),
    ]
}

fn layer_metrics(setup: &Setup, job: &Job, overhead: f64) -> Vec<Metric> {
    let s = &job.stats;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let tiles = job.tiles.clone().unwrap_or_else(no_tiles);
    let slot_us: Vec<f64> = s.slot_ns.iter().map(|&ns| f64::from(ns) * 1e-3).collect();
    let cells_s: f64 = job.cell_walls.iter().sum();
    let layers_ns = s.build_ns + s.step_ns + s.skip_ns + s.inject_ns;
    let dynamic_self = s
        .step_ns
        .saturating_sub(s.feas_ns + s.instantiate_ns + s.attempts_ns);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "scenario.substrate_build_s",
            median(&setup.substrate_s),
            "s",
        ),
        m("scenario.injector_build_s", median(&setup.injector_s), "s"),
        m(
            "scenario.substrate_bytes",
            setup.substrate.approx_bytes() as f64,
            "bytes",
        ),
        m("feasibility.calls", s.feas_calls as f64, "count"),
        m("feasibility.attempts", s.feas_attempts as f64, "count"),
        m("feasibility.busy_s", secs(s.feas_ns), "s"),
        m(
            "feasibility.success_ratio",
            ratio(s.feas_successes, s.feas_attempts),
            "ratio",
        ),
        m("tiles.near_terms", tiles.near_terms as f64, "count"),
        m(
            "tiles.far_terms",
            tiles.far_terms_per_level.iter().sum::<u64>() as f64,
            "count",
        ),
        m(
            "tiles.tiles_visited",
            tiles.tiles_visited_per_level.iter().sum::<u64>() as f64,
            "count",
        ),
        m("tiles.panel_hits", tiles.panel_hits as f64, "count"),
        m("tiles.panel_misses", tiles.panel_misses as f64, "count"),
        m(
            "tiles.panel_evictions",
            tiles.panel_evictions as f64,
            "count",
        ),
        m(
            "tiles.panel_hit_ratio",
            ratio(tiles.panel_hits, tiles.panel_hits + tiles.panel_misses),
            "ratio",
        ),
        m(
            "tiles.panel_high_water_bytes",
            tiles.panel_high_water_bytes as f64,
            "bytes",
        ),
        m(
            "staticsched.instantiate_calls",
            s.instantiate_calls as f64,
            "count",
        ),
        m("staticsched.instantiate_s", secs(s.instantiate_ns), "s"),
        m("staticsched.attempts_s", secs(s.attempts_ns), "s"),
        m("staticsched.acks", s.acks as f64, "count"),
        m("dynamic.step_calls", s.step_calls as f64, "count"),
        m("dynamic.self_s", secs(dynamic_self), "s"),
        m("dynamic.skip_s", secs(s.skip_ns), "s"),
        m("injection.calls", s.inject_calls as f64, "count"),
        m("injection.packets", s.inject_packets as f64, "count"),
        m("injection.busy_s", secs(s.inject_ns), "s"),
        m(
            "sim.stepped_slots",
            (job.slots - job.skipped) as f64,
            "count",
        ),
        m("sim.skipped_slots", job.skipped as f64, "count"),
        m(
            "sim.runner_self_s",
            (cells_s - secs(layers_ns)).max(0.0),
            "s",
        ),
        m("sim.slot_p50_us", percentile(&slot_us, 0.5), "us"),
        m("sim.slot_p99_us", percentile(&slot_us, 0.99), "us"),
        m("sweep.cells", job.cell_walls.len() as f64, "count"),
        m("sweep.substrate_builds", s.substrate_builds as f64, "count"),
        m(
            "sweep.thread_busy_share",
            cells_s / (job.threads as f64 * job.wall_s),
            "ratio",
        ),
        m(
            "sweep.cell_max_s",
            job.cell_walls.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        m("trace.overhead_share", overhead, "ratio"),
    ]
}
