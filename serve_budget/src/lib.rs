//! `serve_budget`: sustainable throughput at a p99 limit, and where each batch's
//! service time and allocations go, on the iMARS serving paths.
//!
//! A workload run builds its engine several times (set-up time), replays the trace on
//! the fresh engine for the modeled energy, then drives the threaded runtime with
//! open-loop Poisson arrivals at the workload's nominal rate for latency, alternated
//! over six rounds with back-to-back phases for the saturation rate. The per-layer
//! part adds a traced run that splits each batch into its layers on one thread, the
//! capacity at the p99 limit (a bisection over a fixed rate ladder) and the cost of
//! tracing. Every answer of every phase is checked against a replay of the trace on a
//! fresh in-process engine.
//!
//! Latency percentiles are exact, pooled over every answer they cover. The saturation
//! rate is the median of its 100 ms windows, so a host stall costs it a few windows
//! rather than a share of the whole. The capacity search confirms a failing rung with a
//! second probe.

pub mod alloc;
pub mod load;
pub mod report;
pub mod stages;
pub mod workload;

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use imars::fabric::cost::CostComponent;
use imars::serve::{MetricsConfig, ServeEngine, ServeError, TraceConfig, WallClock};

use load::{ladder_qps, median, Capacity, Generator, OpenLoop, Saturation, P99_LIMIT_MS, PROBES};
use report::Metrics;
use workload::{Fixture, Reference, Served, Workload, TRACE_QUERIES};

/// Engine builds timed per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// Builds go on past [`SETUP_REPEATS`] until this much set-up time is measured (the
/// in-process builds take tens of milliseconds), up to [`SETUP_MAX`] builds.
const SETUP_SECONDS: f64 = 1.0;
const SETUP_MAX: usize = 200;
/// Rounds the end-to-end phases alternate over.
const ROUNDS: usize = 6;
/// Shares of `--seconds` spent at the nominal rate and saturated in the end-to-end
/// part, and on each capacity probe in the per-layer part.
const NOMINAL_SHARE: f64 = 0.55;
const SATURATION_SHARE: f64 = 0.4;
const PROBE_SHARE: f64 = 0.06;

/// The modeled GPCiM + RSC energy of the trace, from [`ServeEngine::replay`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Queries replayed.
    pub queries: u64,
    /// Total modeled energy per query, pJ.
    pub pj_per_query: f64,
    /// CMA RAM-mode row reads per query, pJ.
    pub cma_read_pj: f64,
    /// CMA in-memory additions per query, pJ.
    pub cma_add_pj: f64,
    /// CMA TCAM searches per query, pJ.
    pub cma_search_pj: f64,
    /// RSC-bus transfers and their control per query, pJ.
    pub rsc_pj: f64,
    /// Replayed answers that differ from the reference.
    pub wrong: u64,
}

impl Modeled {
    /// Replay the fixture's trace on `engine`, which should be freshly built: the cache
    /// contents it starts from are part of what is modeled.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn replay(
        engine: &mut ServeEngine,
        fixture: &Fixture,
        reference: &Reference,
    ) -> Result<Self, ServeError> {
        let outcome = engine.replay(&fixture.trace)?;
        let telemetry = &outcome.report.telemetry;
        let queries = telemetry.queries;
        let per_query = |components: &[CostComponent]| {
            components
                .iter()
                .map(|&c| telemetry.cost.component(c).energy_pj)
                .sum::<f64>()
                / queries.max(1) as f64
        };
        Ok(Self {
            queries,
            pj_per_query: telemetry.energy_pj_per_query(),
            cma_read_pj: per_query(&[CostComponent::CmaRead]),
            cma_add_pj: per_query(&[CostComponent::CmaAdd]),
            cma_search_pj: per_query(&[CostComponent::CmaSearch]),
            rsc_pj: per_query(&[CostComponent::RscTransfer, CostComponent::Control]),
            wrong: reference.wrong(&outcome.responses)
                + (fixture.trace.len() as u64).saturating_sub(outcome.responses.len() as u64),
        })
    }
}

/// Which parts of a workload run to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parts {
    /// The untraced end-to-end phases.
    pub end_to_end: bool,
    /// The traced run and the per-layer phases.
    pub layers: bool,
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every metric measured, with units and sample counts.
    pub metrics: Metrics,
    /// Human-readable lines: the latency-vs-offered-load curve and phase summaries.
    pub notes: Vec<String>,
    /// No answer anywhere differed from the reference.
    pub correct: bool,
    /// Requests submitted in the nominal and saturation phases.
    pub attempted: u64,
    /// Of those: refused, failed, wrong or unanswered.
    pub failed: u64,
}

/// Completions per second over every measured window of saturation phases (0 when
/// the phases were too short to measure).
fn saturation_qps(phases: &[Saturation]) -> f64 {
    let completed: u64 = phases.iter().map(|phase| phase.completed.0).sum();
    let seconds: f64 = phases.iter().map(|phase| phase.completed.1).sum();
    if seconds > 0.0 {
        completed as f64 / seconds
    } else {
        0.0
    }
}

/// Every 100 ms window rate of saturation phases.
fn window_qps(phases: &[Saturation]) -> Vec<f64> {
    phases
        .iter()
        .flat_map(|phase| phase.window_qps.iter().copied())
        .collect()
}

fn to_error(reason: String) -> ServeError {
    ServeError::InvalidConfig { reason }
}

/// Run `workload` for roughly `seconds` of load. `socket_dir` holds the shard-node
/// sockets of the UDS workload.
///
/// # Errors
///
/// Propagates engine, runtime and cluster errors.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    parts: Parts,
    socket_dir: &Path,
) -> Result<RunOutcome, ServeError> {
    alloc::reset_peak();
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    let fixture = Fixture::new(workload, seed, TRACE_QUERIES)?;
    let reference = Reference::compute(&fixture)?;

    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_MAX);
    let mut built: Option<Served> = None;
    while setup_s.len() < SETUP_REPEATS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < SETUP_MAX)
    {
        let tag = setup_s.len();
        if let Some(previous) = built.take() {
            previous.shutdown()?;
        }
        let started = Instant::now();
        built = Some(Served::build(&fixture, socket_dir, tag)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut served = built.expect("at least one set-up");
    let modeled = Modeled::replay(&mut served.engine, &fixture, &reference)?;
    let mut wrong = modeled.wrong;

    let clock = Arc::new(WallClock::new());
    let mut generator = Generator::new(&fixture, &reference, clock, seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let account = |phase: &OpenLoop, attempted: &mut u64, failed: &mut u64| {
        *attempted += phase.attempted;
        *failed += phase.failures();
    };
    let account_peak = |phase: &Saturation, attempted: &mut u64, failed: &mut u64| {
        *attempted += phase.attempted;
        *failed += phase.wrong + phase.missing;
    };

    if parts.end_to_end {
        // The nominal and saturation phases alternate over the rounds, so a slow spell
        // of the host lands in a part of each figure, not in all of one.
        let mut pooled = load::Samples::default();
        let mut peaks = Vec::with_capacity(ROUNDS);
        let mut late_ms = load::Samples::default();
        for _ in 0..ROUNDS {
            let chunk = generator.open_loop(
                &served.engine,
                workload.nominal_qps(),
                NOMINAL_SHARE * seconds / ROUNDS as f64,
                false,
            )?;
            wrong += chunk.wrong;
            account(&chunk, &mut attempted, &mut failed);
            late_ms.merge(&chunk.late_ms);
            pooled.merge(&chunk.latency);
            let peak =
                generator.saturate(&served.engine, SATURATION_SHARE * seconds / ROUNDS as f64)?;
            wrong += peak.wrong;
            account_peak(&peak, &mut attempted, &mut failed);
            peaks.push(peak);
        }
        let windows = window_qps(&peaks);
        let peak_qps = median(&windows);
        notes.push(format!(
            "  {:<12} nominal {:.0} qps: p50 {:.3} ms, p99 {:.3} ms over {} answers ({} beyond the p99); generator p99 lateness {:.3} ms",
            workload.name(),
            workload.nominal_qps(),
            pooled.quantile(0.5),
            pooled.quantile(0.99),
            pooled.len(),
            pooled.len() - (0.99 * pooled.len() as f64).ceil() as usize,
            late_ms.quantile(0.99),
        ));
        notes.push(format!(
            "  {:<12} saturation: median {:.1} qps over {} windows of 100 ms (quartiles {:.1} .. {:.1} qps); completions over {:.2} s: {:.1} qps",
            workload.name(),
            peak_qps,
            windows.len(),
            load::Samples::new(windows.clone()).quantile(0.25),
            load::Samples::new(windows.clone()).quantile(0.75),
            peaks.iter().map(|phase| phase.completed.1).sum::<f64>(),
            saturation_qps(&peaks),
        ));
        metrics.add("p50_ms", pooled.quantile(0.5), "ms", pooled.len() as u64);
        metrics.add("p99_ms", pooled.quantile(0.99), "ms", pooled.len() as u64);
        metrics.add("peak_qps", peak_qps, "qps", windows.len() as u64);
        metrics.add(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
            attempted,
        );
    }
    let setup = load::Samples::new(setup_s.clone());
    notes.push(format!(
        "  {:<12} set-up: median {:.4} s over {} builds (quartiles {:.4} .. {:.4} s)",
        workload.name(),
        setup.quantile(0.5),
        setup.len(),
        setup.quantile(0.25),
        setup.quantile(0.75),
    ));
    metrics.add("setup_s", setup.quantile(0.5), "s", setup.len() as u64);
    metrics.add(
        "modeled_pj_per_query",
        modeled.pj_per_query,
        "pJ",
        modeled.queries,
    );

    if parts.layers {
        let stages = stages::traced_run(&mut served.engine, &fixture, &reference)?;
        wrong += stages.wrong;
        if stages.stage_mismatches > 0 {
            return Err(to_error(format!(
                "{} batches: the standalone stages did not reproduce the engine's answers",
                stages.stage_mismatches
            )));
        }
        let nominal =
            generator.open_loop(&served.engine, workload.nominal_qps(), 0.3 * seconds, false)?;
        wrong += nominal.wrong;
        account(&nominal, &mut attempted, &mut failed);

        // Capacity at the p99 limit: a bisection over the workload's rate ladder.
        let mut capacity = Capacity::default();
        for _ in 0..PROBES {
            generator.probe(&served.engine, &mut capacity, PROBE_SHARE * seconds)?;
        }
        for probe in &capacity.probes {
            let phase = &probe.phase;
            wrong += phase.wrong;
            notes.push(format!(
                "  {:<12} ladder rung {:>2} offered {:>8.1} qps: p50 {:>8.3} ms  p99 {:>8.3} ms (n={})  refused {}  in flight {:.0} -> {:.0}{}  -> {}",
                workload.name(),
                probe.rung,
                ladder_qps(workload.ladder_base_qps(), probe.rung),
                phase.latency.quantile(0.5),
                phase.latency.quantile(0.99),
                phase.latency.len(),
                phase.refused,
                phase.backlog.0,
                phase.backlog.1,
                if phase.aborted { " (stopped early)" } else { "" },
                if probe.passed { "pass" } else { "fail" },
            ));
        }
        notes.push(format!(
            "  {:<12} capacity at p99 <= {P99_LIMIT_MS} ms: {:.1} qps",
            workload.name(),
            capacity.qps(),
        ));

        // Observability cost: saturation with tracing (1 in 8) and metrics armed,
        // alternated with the untraced engine.
        let mut observed = served.engine.clone();
        observed.enable_tracing(TraceConfig {
            sample_every: 8,
            seed: 42,
            capacity: 512,
            slow_k: 4,
        });
        observed.enable_metrics(MetricsConfig {
            interval_us: 100_000.0,
        });
        let (mut plain_peaks, mut observed_peaks) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            for (engine, peaks) in [
                (&served.engine, &mut plain_peaks),
                (&observed, &mut observed_peaks),
            ] {
                let peak = generator.saturate(engine, 0.15 * seconds)?;
                wrong += peak.wrong;
                account_peak(&peak, &mut attempted, &mut failed);
                peaks.push(peak);
            }
        }
        let (plain, traced) = (
            saturation_qps(&plain_peaks),
            saturation_qps(&observed_peaks),
        );
        let (plain_windows, observed_windows) =
            (window_qps(&plain_peaks), window_qps(&observed_peaks));

        let batches = stages.batches as u64;
        let queries = nominal.report.telemetry.queries;
        let runtime = nominal
            .report
            .runtime
            .clone()
            .ok_or_else(|| to_error("the runtime report has no runtime stats".to_string()))?;
        metrics.add(
            "runtime.batch_size_mean",
            nominal.report.telemetry.mean_batch_size(),
            "queries",
            nominal.report.telemetry.batches,
        );
        metrics.add(
            "runtime.capacity_qps",
            capacity.qps(),
            "qps",
            capacity.probes.len() as u64,
        );
        metrics.add(
            "runtime.p99_ms",
            nominal.latency.quantile(0.99),
            "ms",
            nominal.latency.len() as u64,
        );
        metrics.add(
            "runtime.queue_depth_max",
            runtime.queue_depth_max as f64,
            "requests",
            runtime.queue_depth_samples,
        );
        metrics.add(
            "runtime.worker_utilization",
            runtime.utilization(),
            "fraction",
            runtime.workers as u64,
        );
        metrics.add(
            "runtime.refused",
            runtime.rejected as f64,
            "count",
            runtime.submitted + runtime.rejected,
        );
        metrics.add(
            "gen.late_p99_ms",
            nominal.late_ms.quantile(0.99),
            "ms",
            nominal.late_ms.len() as u64,
        );
        metrics.add(
            "engine.service_us_per_query",
            stages.service_us_per_query,
            "us",
            batches,
        );
        metrics.add("engine.batch_us_p99", stages.batch_us_p99, "us", batches);
        metrics.add(
            "engine.allocs_per_batch",
            stages.engine_allocs.0,
            "count",
            batches,
        );
        metrics.add(
            "engine.alloc_bytes_per_batch",
            stages.engine_allocs.1,
            "bytes",
            batches,
        );
        metrics.add(
            "engine.unattributed_pct",
            stages.unattributed_pct,
            "%",
            batches,
        );
        let lookups = stages.cache.lookups();
        let served_queries = stages.queries.max(1) as f64;
        metrics.add(
            "cache.hit_rate",
            stages.cache.hit_rate(),
            "fraction",
            lookups,
        );
        metrics.add(
            "cache.coalesced_per_query",
            stages.cache.coalesced as f64 / served_queries,
            "count",
            lookups,
        );
        metrics.add(
            "cache.evictions_per_query",
            stages.cache.evictions as f64 / served_queries,
            "count",
            lookups,
        );
        metrics.add(
            "cache.admission_rejections_per_query",
            stages.cache.rejections as f64 / served_queries,
            "count",
            lookups,
        );
        metrics.add(
            "cache.probe_us_per_batch",
            stages.probe_us_per_batch,
            "us",
            batches,
        );
        if !workload.clustered() {
            metrics.add(
                "shard.pool_us_per_batch",
                stages.pool_us_per_batch,
                "us",
                batches,
            );
            metrics.add(
                "shard.allocs_per_batch",
                stages.pool_allocs,
                "count",
                batches,
            );
        }
        if let Some(cluster) = &nominal.report.cluster {
            metrics.add(
                "cluster.fetch_us_per_batch",
                stages.fetch_us_per_batch,
                "us",
                batches,
            );
            metrics.add(
                "cluster.fanout_mean",
                cluster.mean_fanout(),
                "shards",
                cluster.fetches,
            );
            metrics.add(
                "cluster.cross_shard_bytes_per_query",
                cluster.cross_shard_bytes as f64 / queries.max(1) as f64,
                "bytes",
                queries,
            );
            metrics.add(
                "cluster.retries",
                cluster.retries as f64,
                "count",
                cluster.subrequests,
            );
            metrics.add(
                "cluster.timeouts",
                cluster.timeouts as f64,
                "count",
                cluster.subrequests,
            );
            metrics.add(
                "cluster.hedges",
                cluster.hedges as f64,
                "count",
                cluster.subrequests,
            );
        }
        metrics.add(
            "lsh.signature_us_per_query",
            stages.lsh_us_per_query,
            "us",
            batches,
        );
        metrics.add(
            "cma.search_us_per_query",
            stages.cma_us_per_query,
            "us",
            batches,
        );
        metrics.add("cma.ns_per_row", stages.cma_ns_per_row, "ns", batches);
        metrics.add(
            "cma.match_fraction",
            stages.cma_match_fraction,
            "fraction",
            stages.queries as u64,
        );
        metrics.add("cma.allocs_per_batch", stages.cma_allocs, "count", batches);
        metrics.add(
            "dlrm.rank_us_per_query",
            stages.dlrm_us_per_query,
            "us",
            batches,
        );
        metrics.add(
            "dlrm.allocs_per_batch",
            stages.dlrm_allocs,
            "count",
            batches,
        );
        metrics.add(
            "model.cma_read_pj_per_query",
            modeled.cma_read_pj,
            "pJ",
            modeled.queries,
        );
        metrics.add(
            "model.cma_add_pj_per_query",
            modeled.cma_add_pj,
            "pJ",
            modeled.queries,
        );
        metrics.add(
            "model.cma_search_pj_per_query",
            modeled.cma_search_pj,
            "pJ",
            modeled.queries,
        );
        metrics.add(
            "model.rsc_pj_per_query",
            modeled.rsc_pj,
            "pJ",
            modeled.queries,
        );
        metrics.add(
            "observability.overhead_pct",
            100.0 * (plain - traced) / plain,
            "%",
            (plain_windows.len() + observed_windows.len()) as u64,
        );
        notes.push(format!(
            "  {:<12} saturation untraced {:.1} qps, traced+metrics {:.1} qps (completions over {} and {} windows of 100 ms)",
            workload.name(),
            plain,
            traced,
            plain_windows.len(),
            observed_windows.len(),
        ));
    }
    served.shutdown()?;
    metrics.add(
        "peak_heap_mb",
        alloc::peak_bytes() as f64 / (1u64 << 20) as f64,
        "MB",
        1,
    );
    Ok(RunOutcome {
        metrics,
        notes,
        correct: wrong == 0,
        attempted,
        failed,
    })
}
