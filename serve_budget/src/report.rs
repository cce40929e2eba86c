//! Named metrics with units and sample counts, printed for people and as the one JSON
//! result line the benchmark ends with.

/// The end-to-end metrics of the result line (every workload reports all of them).
/// `p99_ms` and `capacity_qps` are printed beside them but recorded as the per-layer
/// `runtime.p99_ms` and `runtime.capacity_qps`: on a host whose vCPUs are descheduled
/// for tens of milliseconds at a time, a latency tail measures the host as much as the
/// program, and they do not repeat run to run within any bound the gate allows.
pub const END_TO_END: [&str; 5] = [
    "p50_ms",
    "peak_qps",
    "setup_s",
    "modeled_pj_per_query",
    "peak_heap_mb",
];

/// The per-layer metrics of the result line: the ones every workload has. The
/// workload-specific layers (`shard.*` in-process, `cluster.*` on a cluster) are
/// printed, not put on the result line.
pub const PER_LAYER: [&str; 29] = [
    "runtime.batch_size_mean",
    "runtime.capacity_qps",
    "runtime.p99_ms",
    "runtime.queue_depth_max",
    "runtime.worker_utilization",
    "runtime.refused",
    "gen.late_p99_ms",
    "engine.service_us_per_query",
    "engine.batch_us_p99",
    "engine.allocs_per_batch",
    "engine.alloc_bytes_per_batch",
    "engine.unattributed_pct",
    "cache.hit_rate",
    "cache.coalesced_per_query",
    "cache.evictions_per_query",
    "cache.admission_rejections_per_query",
    "cache.probe_us_per_batch",
    "lsh.signature_us_per_query",
    "cma.search_us_per_query",
    "cma.ns_per_row",
    "cma.match_fraction",
    "cma.allocs_per_batch",
    "dlrm.rank_us_per_query",
    "dlrm.allocs_per_batch",
    "model.cma_read_pj_per_query",
    "model.cma_add_pj_per_query",
    "model.cma_search_pj_per_query",
    "model.rsc_pj_per_query",
    "observability.overhead_pct",
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// The metrics of one workload run, in the order measured.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<Metric>,
}

impl Metrics {
    /// Record a metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.entries.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|metric| metric.name == name)
    }

    /// One human-readable line per metric.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.entries
            .iter()
            .map(|metric| {
                format!(
                    "  {workload:<12} {:<38} {:>16} {:<9} n={}",
                    metric.name,
                    format!("{:.4}", metric.value),
                    metric.unit,
                    metric.samples
                )
            })
            .collect()
    }
}

/// The JSON result line over the metrics named in `names`, each of which must have been
/// recorded with a finite value.
///
/// # Errors
///
/// Names the metric that is missing or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[&str],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(names.len());
    for name in names {
        let metric = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !metric.value.is_finite() {
            return Err(format!("metric {name} is {}", metric.value));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.value, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
