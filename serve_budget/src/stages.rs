//! The traced run: one thread, no runtime, and a per-stage split of each batch.
//!
//! Batches are formed by the public [`DynamicBatcher`] from the trace's arrivals under
//! the engine's batching policy, exactly as [`ServeEngine::replay`] forms them. Each
//! batch is served by [`ServeEngine::process_batch`], then the same batch is run
//! through standalone copies of each layer, built from the engine's seeds: the
//! hot-row cache, `ShardedTable::pool_batch`, the LSH signer, the TCAM
//! (`CmaArray::search_batch`) and `Dlrm::predict_batch`. Every call is timed and
//! bracketed by the allocation counter. The standalone stages must reproduce the
//! engine's answer bit for bit, which proves they did the same work.

use std::time::Instant;

use imars::device::characterization::ArrayFom;
use imars::fabric::cma::CmaArray;
use imars::recsys::batch::PoolingBatch;
use imars::recsys::dlrm::{Dlrm, DlrmSample};
use imars::recsys::lsh::RandomHyperplaneLsh;
use imars::recsys::quantization::{QuantizationParams, QuantizedTable};
use imars::serve::{
    shard_embedding, CacheStats, DynamicBatcher, HotRowCache, Lane, Placement, ServeEngine,
    ServeError, ServeRequest, ShardPlan, ShardedTable,
};

use crate::alloc::AllocCount;
use crate::load::{median, Samples};
use crate::workload::{model_config, Fixture, Reference};

/// One call's wall time and allocations.
#[derive(Debug, Clone, Copy, Default)]
struct Timed {
    us: f64,
    allocs: AllocCount,
}

fn timed<R>(call: impl FnOnce() -> R) -> (R, Timed) {
    let allocs = AllocCount::now();
    let started = Instant::now();
    let result = call();
    let us = started.elapsed().as_secs_f64() * 1e6;
    (
        result,
        Timed {
            us,
            allocs: allocs.since(),
        },
    )
}

/// One batch's measurements.
#[derive(Debug, Clone, Copy)]
struct BatchRecord {
    queries: usize,
    engine: Timed,
    probe: Timed,
    pool: Timed,
    lsh: Timed,
    cma: Timed,
    dlrm: Timed,
    matches: usize,
}

/// The catalogue copy and caches the standalone cache and pooling stages run on.
struct Standalone<T: Lane> {
    table: ShardedTable<T>,
    caches: Vec<HotRowCache<T>>,
    /// Routes a row to its shard-node cache (`None`: one router cache).
    plan: Option<ShardPlan>,
}

impl<T: Lane> Standalone<T> {
    fn probe(&mut self, rows: &[u32]) {
        for &row in rows {
            let shard = self.plan.as_ref().map_or(0, |plan| plan.primary_shard(row));
            let cache = &mut self.caches[shard];
            if cache.lookup(row).is_none() {
                cache.insert(row, self.table.row(row));
            }
        }
    }
}

enum Store {
    Fp32(Standalone<f32>),
    Int8(Standalone<i8>, QuantizationParams),
}

impl Store {
    fn build(fixture: &Fixture) -> Result<Self, ServeError> {
        let config = fixture.workload.serve_config();
        let rows = fixture.items.rows();
        let (caches, plan) = match fixture.workload.cluster_config() {
            None => (vec![config.cache_capacity], None),
            Some(cluster) => {
                let plan = ShardPlan::build(rows, cluster.shards, Placement::Range, 0, None)?;
                let per_node = config.cache_capacity.div_ceil(cluster.shards);
                (vec![per_node; cluster.shards], Some(plan))
            }
        };
        let dim = fixture.items.dim();
        Ok(match config.precision {
            imars::serve::ServePrecision::Fp32 => Store::Fp32(Standalone {
                table: shard_embedding(&fixture.items, config.shards)?,
                caches: caches
                    .iter()
                    .map(|&rows| HotRowCache::with_policy(rows, dim, config.cache_policy))
                    .collect(),
                plan,
            }),
            imars::serve::ServePrecision::Int8 => {
                let (arena, params) = QuantizedTable::from_table(&fixture.items).into_arena();
                Store::Int8(
                    Standalone {
                        table: ShardedTable::from_arena(arena, config.shards)?,
                        caches: caches
                            .iter()
                            .map(|&rows| HotRowCache::with_policy(rows, dim, config.cache_policy))
                            .collect(),
                        plan,
                    },
                    params,
                )
            }
        })
    }

    fn probe(&mut self, rows: &[u32]) {
        match self {
            Store::Fp32(store) => store.probe(rows),
            Store::Int8(store, _) => store.probe(rows),
        }
    }

    /// Pool the batch into f32 profiles; the returned timing covers `pool_batch` only.
    fn pool(&self, batch: &PoolingBatch, dim: usize) -> Result<(Vec<f32>, Timed), ServeError> {
        match self {
            Store::Fp32(store) => {
                let mut out = vec![0.0f32; batch.len() * dim];
                let (result, time) = timed(|| store.table.pool_batch(batch, &mut out));
                result?;
                Ok((out, time))
            }
            Store::Int8(store, params) => {
                let mut out = vec![0i8; batch.len() * dim];
                let (result, time) = timed(|| store.table.pool_batch(batch, &mut out));
                result?;
                Ok((out.iter().map(|&v| params.dequantize(v)).collect(), time))
            }
        }
    }
}

/// What the traced run measured, as medians over batches.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Batches served.
    pub batches: usize,
    /// Queries served.
    pub queries: usize,
    /// Engine answers that differed from the reference.
    pub wrong: u64,
    /// Batches whose standalone stages did not reproduce the engine's answers.
    pub stage_mismatches: u64,
    /// `process_batch` time per query, µs (median over batches).
    pub service_us_per_query: f64,
    /// p99 of `process_batch` time per batch, µs.
    pub batch_us_p99: f64,
    /// Allocations and bytes per `process_batch` call (mean).
    pub engine_allocs: (f64, f64),
    /// Standalone cache probe per batch, µs.
    pub probe_us_per_batch: f64,
    /// `ShardedTable::pool_batch` per batch, µs, and allocations per call.
    pub pool_us_per_batch: f64,
    /// Allocations per `pool_batch` call (mean).
    pub pool_allocs: f64,
    /// LSH signing per query, µs.
    pub lsh_us_per_query: f64,
    /// TCAM search per query, µs.
    pub cma_us_per_query: f64,
    /// TCAM search per row scanned, ns.
    pub cma_ns_per_row: f64,
    /// Matches over rows scanned.
    pub cma_match_fraction: f64,
    /// Allocations per `search_batch` call (mean).
    pub cma_allocs: f64,
    /// DLRM ranking per query, µs.
    pub dlrm_us_per_query: f64,
    /// Allocations per `predict_batch` call (mean).
    pub dlrm_allocs: f64,
    /// `process_batch` minus LSH, TCAM and DLRM, per batch, µs: the row fetch of a
    /// cluster store.
    pub fetch_us_per_batch: f64,
    /// 1 − (measured stages) / `process_batch`, median over batches, in percent.
    pub unattributed_pct: f64,
    /// The engine's cache counters over the run.
    pub cache: CacheStats,
}

/// Run the traced pass over the whole trace on `engine`.
///
/// # Errors
///
/// Propagates engine and stage errors.
pub fn traced_run(
    engine: &mut ServeEngine,
    fixture: &Fixture,
    reference: &Reference,
) -> Result<StageReport, ServeError> {
    let config = fixture.workload.serve_config();
    let clustered = fixture.workload.clustered();
    let dim = fixture.items.dim();
    let rows = fixture.items.rows();
    let lsh = RandomHyperplaneLsh::new(dim, config.signature_bits, config.lsh_seed)?;
    let mut tcam = CmaArray::new(rows, config.signature_bits, ArrayFom::paper_reference());
    for row in 0..rows {
        let signature = lsh.signature(fixture.items.row(row))?;
        tcam.write_row_bits(row, &signature, config.signature_bits)
            .map_err(|error| ServeError::InvalidConfig {
                reason: error.to_string(),
            })?;
    }
    let model = Dlrm::new(model_config())?;
    let mut store = Store::build(fixture)?;

    let mut batcher: DynamicBatcher<ServeRequest> = DynamicBatcher::new(config.policy);
    let mut batches = Vec::new();
    for request in fixture.trace.requests() {
        batches.extend(batcher.poll(request.arrival_us));
        batches.extend(batcher.offer(request.clone(), request.arrival_us));
    }
    batches.extend(batcher.drain(f64::INFINITY));

    let cache_before = engine.cache_stats();
    let mut records = Vec::with_capacity(batches.len());
    let (mut wrong, mut stage_mismatches) = (0u64, 0u64);
    for batch in &batches {
        let requests = &batch.requests;
        let (responses, engine_time) = timed(|| engine.process_batch(requests));
        let responses = responses?;
        wrong += reference.wrong(&responses);

        let histories: Vec<&[u32]> = requests.iter().map(|r| r.history.as_slice()).collect();
        let pooling = PoolingBatch::from_requests(&histories);
        let ((), probe) = timed(|| store.probe(pooling.indices()));
        let (profiles, pool) = store.pool(&pooling, dim)?;
        let (signatures, lsh_time) = timed(|| {
            profiles
                .chunks(dim)
                .map(|profile| lsh.signature(profile))
                .collect::<Result<Vec<_>, _>>()
        });
        let signatures = signatures?;
        let (search, cma) = timed(|| tcam.search_batch(&signatures, config.search_radius));
        let search = search.map_err(|error| ServeError::InvalidConfig {
            reason: error.to_string(),
        })?;
        let samples: Vec<DlrmSample> = requests
            .iter()
            .zip(profiles.chunks(dim))
            .map(|(request, profile)| DlrmSample {
                dense: profile.to_vec(),
                sparse: request.sparse.clone(),
            })
            .collect();
        let (scores, dlrm) = timed(|| model.predict_batch(&samples));
        let scores = scores?;

        let reproduced = responses
            .iter()
            .zip(requests)
            .zip(scores.iter().zip(&search.value))
            .all(|((response, request), (score, matches))| {
                response.score.to_bits() == score.to_bits()
                    && response.candidates == matches.len().min(request.query.candidates)
            });
        if !reproduced || responses.len() != requests.len() {
            stage_mismatches += 1;
        }
        records.push(BatchRecord {
            queries: requests.len(),
            engine: engine_time,
            probe,
            pool,
            lsh: lsh_time,
            cma,
            dlrm,
            matches: search.value.iter().map(Vec::len).sum(),
        });
    }
    let cache = engine.cache_stats().delta_since(&cache_before);

    let per_batch = |stage: fn(&BatchRecord) -> f64| -> f64 {
        median(&records.iter().map(stage).collect::<Vec<_>>())
    };
    let mean_allocs = |stage: fn(&BatchRecord) -> u64| -> f64 {
        records.iter().map(stage).sum::<u64>() as f64 / records.len().max(1) as f64
    };
    let queries: usize = records.iter().map(|r| r.queries).sum();
    let matches: usize = records.iter().map(|r| r.matches).sum();
    Ok(StageReport {
        batches: records.len(),
        queries,
        wrong,
        stage_mismatches,
        service_us_per_query: per_batch(|r| r.engine.us / r.queries as f64),
        batch_us_p99: Samples::new(records.iter().map(|r| r.engine.us).collect()).quantile(0.99),
        engine_allocs: (
            mean_allocs(|r| r.engine.allocs.allocs),
            mean_allocs(|r| r.engine.allocs.bytes),
        ),
        probe_us_per_batch: per_batch(|r| r.probe.us),
        pool_us_per_batch: per_batch(|r| r.pool.us),
        pool_allocs: mean_allocs(|r| r.pool.allocs.allocs),
        lsh_us_per_query: per_batch(|r| r.lsh.us / r.queries as f64),
        cma_us_per_query: per_batch(|r| r.cma.us / r.queries as f64),
        cma_ns_per_row: per_batch(|r| r.cma.us * 1e3 / r.queries as f64) / rows as f64,
        cma_match_fraction: matches as f64 / (queries * rows).max(1) as f64,
        cma_allocs: mean_allocs(|r| r.cma.allocs.allocs),
        dlrm_us_per_query: per_batch(|r| r.dlrm.us / r.queries as f64),
        dlrm_allocs: mean_allocs(|r| r.dlrm.allocs.allocs),
        fetch_us_per_batch: per_batch(|r| r.engine.us - r.lsh.us - r.cma.us - r.dlrm.us),
        unattributed_pct: 100.0
            * if clustered {
                per_batch(|r| 1.0 - (r.probe.us + r.lsh.us + r.cma.us + r.dlrm.us) / r.engine.us)
            } else {
                per_batch(|r| {
                    1.0 - (r.probe.us + r.pool.us + r.lsh.us + r.cma.us + r.dlrm.us) / r.engine.us
                })
            },
        cache,
    })
}
