//! Multi-node shard routing: catalogue partitions behind per-shard bounded queues, a
//! router that fans pooled lookups out as per-shard sub-requests, and an RSC-bus
//! interconnect charge per cross-shard hop.
//!
//! The in-process [`ShardedTable`](crate::shard::ShardedTable) partitions rows but
//! serves them for free; this module makes the partitioning *cost* something, the way
//! iMARS banks its CMA fabric and pays the RSC bus for cross-bank traffic:
//!
//! ```text
//!                         ┌── shard 0: [bounded queue] -> worker(s) over partition 0
//! router --split/fan-out--┼── shard 1: [bounded queue] -> worker(s) over partition 1
//!   (home-shard routing,  └── shard k: ...
//!    replica resolution)       each sub-response -> gather (canonical merge) -> pool
//! ```
//!
//! Every shard node owns its partition of the catalogue (plus replicas of the hot set)
//! behind its own [`BoundedQueue`]; worker threads serve row-fetch sub-requests from it.
//! The router ([`ClusterClient`]) splits a batch's lookups with the deterministic
//! [`ShardPlan::split`], fans sub-requests out, and gathers the sub-responses. Because
//! each flat lookup position is served by exactly one shard and the final pooling
//! accumulates in request order (the single-node order), the ranked outputs are
//! **bit-identical** to the single-node engine no matter how many shards or workers are
//! involved — shards move *rows*, not partial sums, precisely so that f32/int8
//! accumulation order never changes.
//!
//! Cross-shard traffic is charged to the RSC bus: every sub-request to a non-home shard
//! pays one hop — indices down, rows back, both serialized into bus beats plus a
//! controller overhead ([`RscBus::hop`]) — and the byte/hop/fan-out counters land in
//! [`ClusterStats`] next to the modeled GPCiM energy.
//!
//! There is one fetch path. Every dispatch of a shard's slice is an *attempt* with its
//! own tag, and one gather loop collects the replies under the router's policy:
//!
//! * With a [`ResilienceConfig`] (always, for a socket transport) failure is a
//!   survivable scenario. A silent shard **times out** against the injected [`Clock`],
//!   timed-out work is **retried** with backoff, slow primaries are **hedged** onto a
//!   replica-holding shard once `hedge_after_us` elapses, and when a shard is dead its
//!   hot rows are **promoted** — the frequency-placement replicas
//!   ([`ShardPlan::is_replicated`]) serve them from any healthy shard — while cold rows
//!   degrade gracefully to zero-filled lookups recorded as *missing*. Every decision is
//!   counted (`timeouts`/`retries`/`hedges`/`hedge_wins`/`promotions`/`missing_rows` in
//!   [`ClusterStats`]), so a chaos replay can account for every degraded query.
//! * Without one, in-process links run the strict policy: no deadline, no retries, no
//!   hedging. A dispatch to a full shard queue counts the rejection and then blocks
//!   (backpressure, not data loss), and a slice no shard can serve fails the fetch with
//!   [`ServeError::ShardFailed`] instead of degrading.
//!
//! Failure is never a deadlock: a panicking shard worker closes its input queue, and
//! the gather loop sees the closed queue and gives up on that shard's attempts. Shards
//! move rows, never partial sums, so any query untouched by missing rows stays
//! bit-identical to the healthy run under either policy.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use imars_fabric::config::InterconnectParams;
use imars_fabric::cost::{Cost, CostBreakdown};
use imars_fabric::interconnect::RscBus;
use imars_recsys::arena::RowArena;
use imars_recsys::batch::PoolingBatch;

use crate::cache::{CachePolicy, CacheStats, HotRowCache};
use crate::chaos::{ChaosPlan, FaultAction};
use crate::clock::{Clock, WallClock};
use crate::error::ServeError;
use crate::metrics::ShardFaultDelta;
use crate::placement::{Placement, ShardPlan};
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::shard::{pool_from_staging, Lane, RowSource};
use crate::telemetry::ClusterStats;
use crate::trace::{FetchEvent, FetchEventKind, NodeSpan, NodeSpanRecord};
use crate::transport::{self, SocketLink};

/// Configuration of a shard cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Shard nodes to partition the catalogue across.
    pub shards: usize,
    /// Worker threads serving each shard's queue.
    pub workers_per_shard: usize,
    /// Capacity of each shard's bounded sub-request queue.
    pub queue_capacity: usize,
    /// The placement policy assigning rows to shards.
    pub placement: Placement,
    /// Hottest rows replicated onto every shard (0 disables replication).
    pub hot_replicas: usize,
    /// RSC-bus parameters the cross-shard hops are charged against.
    pub interconnect: InterconnectParams,
    /// Fault-tolerance policy. `None` runs the strict policy on in-process links (no
    /// deadline, no retries, a lost shard fails the fetch); `Some` arms timeouts,
    /// retries, hedging and replica promotion. A socket transport always runs with a
    /// policy, [`ResilienceConfig::default`] when this is `None`.
    pub resilience: Option<ResilienceConfig>,
}

/// The fault-tolerance policy of a [`ClusterClient`]: how long to wait, how often to
/// retry, and when to hedge. Plain data so [`ClusterConfig`] stays comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Deadline per sub-request attempt, microseconds (on the injected clock). A shard
    /// silent past this is timed out and the attempt failed over.
    pub request_timeout_us: f64,
    /// Hedge a still-unanswered sub-request onto a replica-holding shard after this
    /// long, microseconds. `INFINITY` disables hedging.
    pub hedge_after_us: f64,
    /// Re-dispatches allowed per sub-request (over the initial attempt) before its
    /// rows degrade to zero-filled lookups.
    pub max_retries: u32,
    /// Backoff before a same-shard retry, microseconds (scaled by the attempt count).
    pub backoff_us: f64,
}

impl Default for ResilienceConfig {
    /// Generous production-shaped defaults: 2 s deadline, two retries with 1 ms
    /// backoff, hedging disabled.
    fn default() -> Self {
        Self {
            request_timeout_us: 2_000_000.0,
            hedge_after_us: f64::INFINITY,
            max_retries: 2,
            backoff_us: 1_000.0,
        }
    }
}

impl ResilienceConfig {
    /// Validate the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for non-positive deadlines or a negative
    /// backoff.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.request_timeout_us <= 0.0 || self.request_timeout_us.is_nan() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "resilience needs a positive request_timeout_us, got {}",
                    self.request_timeout_us
                ),
            });
        }
        if self.hedge_after_us <= 0.0 || self.hedge_after_us.is_nan() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "resilience needs a positive hedge_after_us, got {}",
                    self.hedge_after_us
                ),
            });
        }
        if self.backoff_us < 0.0 || !self.backoff_us.is_finite() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "resilience needs a finite non-negative backoff_us, got {}",
                    self.backoff_us
                ),
            });
        }
        Ok(())
    }
}

/// Per-shard-node hot-row cache configuration: each shard node serves row fetches
/// through its own [`HotRowCache`] of this capacity and policy, so a multi-process
/// cluster caches where the rows live instead of at the router. Plain data so it can
/// ride in [`ClusterOptions`] and cross the socket transport as a config frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCacheConfig {
    /// Rows each shard node's cache holds (0 disables node caching).
    pub capacity: usize,
    /// The replacement/admission policy every node cache runs.
    pub policy: CachePolicy,
}

impl ClusterConfig {
    /// A cluster of `shards` nodes under `placement`, one worker per shard, a 64-deep
    /// queue per shard, no replication, and the paper's interconnect parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `shards` is zero.
    pub fn new(shards: usize, placement: Placement) -> Result<Self, ServeError> {
        let config = Self {
            shards,
            workers_per_shard: 1,
            queue_capacity: 64,
            placement,
            hot_replicas: 0,
            interconnect: InterconnectParams::default(),
            resilience: None,
        };
        config.validate()?;
        Ok(config)
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the zero field.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (name, value) in [
            ("shards", self.shards),
            ("workers_per_shard", self.workers_per_shard),
            ("queue_capacity", self.queue_capacity),
        ] {
            if value == 0 {
                return Err(ServeError::InvalidConfig {
                    reason: format!("cluster needs a nonzero {name}"),
                });
            }
        }
        if let Some(resilience) = &self.resilience {
            resilience.validate()?;
        }
        Ok(())
    }
}

/// Real-time slice of one gather poll: short enough that injected-clock
/// deadlines are rechecked promptly, long enough not to spin.
const GATHER_POLL: Duration = Duration::from_micros(500);

/// Consecutive timeout strikes after which a client declares a shard dead. One deeper
/// than the default transient drop burst ([`crate::chaos`]'s `drop` fault), so retries
/// rescue a short burst with zero degradation before the breaker trips.
const DEAD_AFTER_STRIKES: u32 = 3;

/// One shard's resident rows: a view into the shared [`RowArena`] plus a residency
/// bitset over global row ids (the plan's partition plus replicas).
///
/// In-process shard nodes used to copy their resident rows into a private slot table,
/// so loading an 8-shard catalogue held the whole table twice. Now every node clones
/// the arena handle — one allocation per dtype, shared with the engine and every other
/// shard — and residency is pure bookkeeping: the bit says "the plan placed this row
/// here", the row bytes are read from the shared arena.
#[derive(Debug)]
struct ShardStorage<T> {
    /// Bit `row` set when this shard may serve `row` (partition member or replica).
    resident: Vec<u64>,
    /// The shared row storage (cheap handle clone, never a row copy).
    arena: RowArena<T>,
}

impl<T: Lane> ShardStorage<T> {
    fn build(arena: &RowArena<T>, resident: &[u32]) -> Self {
        let mut bits = vec![0u64; arena.rows().div_ceil(64)];
        for &row in resident {
            bits[row as usize / 64] |= 1 << (row % 64);
        }
        Self {
            resident: bits,
            arena: arena.clone(),
        }
    }

    fn dim(&self) -> usize {
        self.arena.dim()
    }

    /// Whether the plan placed `row` (or a replica of it) on this shard.
    fn is_resident(&self, row: u32) -> bool {
        self.resident
            .get(row as usize / 64)
            .is_some_and(|word| word & (1 << (row % 64)) != 0)
    }

    /// The resident view of `row`. Panics if the row does not live on this shard — the
    /// router only sends rows the plan assigns here, so a violation is a routing bug
    /// and must fail the node (the panic guard closes its queue, a lost shard to the
    /// router).
    fn row(&self, row: u32) -> &[T] {
        assert!(
            self.is_resident(row),
            "row {row} is not resident on this shard"
        );
        self.arena.row(row as usize)
    }
}

/// The trace context a traced fetch carries to the serving worker: the tracer's clock
/// plus the dispatch timestamp, so the shard node measures its own server-side span
/// (queue wait, cache probe, storage read) on the *tracer's* clock — frozen on a
/// [`ManualClock`](crate::clock::ManualClock), which keeps traced replays
/// byte-deterministic. `None` (the untraced default) costs the worker one branch.
#[derive(Debug, Clone)]
pub(crate) struct TraceContext {
    clock: Arc<dyn Clock>,
    enqueued_us: f64,
}

/// A row-fetch sub-request routed to one shard.
#[derive(Debug)]
pub(crate) struct SubRequest<T> {
    /// The attempt's tag; responses echo it so the router can match each reply to
    /// its attempt and discard stragglers of expired ones.
    tag: u64,
    /// Global row ids to fetch, in the split's canonical order.
    rows: Vec<u32>,
    /// Where the serving worker pushes the response.
    reply: Arc<BoundedQueue<SubResponse<T>>>,
    /// Test hook: a poisoned sub-request makes the serving worker panic, exercising the
    /// failure path deterministically.
    poison: bool,
    /// `Some` when the router's trace sink is armed: the worker records a node span.
    trace: Option<TraceContext>,
}

/// One shard's response to a [`SubRequest`]: the requested rows, concatenated in
/// request order.
#[derive(Debug)]
pub(crate) struct SubResponse<T> {
    pub(crate) tag: u64,
    pub(crate) shard: usize,
    pub(crate) data: Vec<T>,
    /// The node's server-side span, present exactly when the request was traced
    /// (socket nodes ship it on a `NODE_SPAN` frame ahead of the rows).
    pub(crate) node_span: Option<NodeSpan>,
}

/// Counters shared by every router clone and the cluster handle.
#[derive(Debug)]
pub(crate) struct ClusterCounters {
    shards: usize,
    workers_per_shard: usize,
    placement: Placement,
    hot_replicas: usize,
    queue_capacity: usize,
    /// Rows served per shard (the load-balance / skew signal).
    served: Vec<AtomicU64>,
    /// Queue-overflow rejections per shard (counted before the blocking fallback).
    rejections: Vec<AtomicU64>,
    /// Deepest observed sub-request queue depth per shard.
    depth_max: Vec<AtomicU64>,
    /// Routed fetches (one per batch of misses reaching the cluster).
    fetches: AtomicU64,
    /// Sub-requests issued (the fan-out width sum).
    subrequests: AtomicU64,
    /// Sub-requests that crossed shards (non-home hops).
    hops: AtomicU64,
    /// Row payload bytes served from non-home shards (the bus charge additionally
    /// covers the sub-request index bytes).
    cross_bytes: AtomicU64,
    /// Bytes served home-locally (no bus charge).
    local_bytes: AtomicU64,
    /// Sub-request attempts that blew their deadline.
    timeouts: AtomicU64,
    /// Re-dispatches of timed-out or failed sub-requests.
    retries: AtomicU64,
    /// Speculative duplicate dispatches against a slow primary.
    hedges: AtomicU64,
    /// Hedged dispatches whose response arrived before the primary's.
    hedge_wins: AtomicU64,
    /// Sub-requests served by a replica-holding shard other than their owner.
    promotions: AtomicU64,
    /// Row lookups degraded to zero-filled results (no healthy shard held the row).
    missing_rows: AtomicU64,
    /// Node-cache hits per shard (all zero when node caching is off). In-process
    /// workers add per-fetch deltas; socket nodes report theirs in `STATS` frames.
    cache_hits: Vec<AtomicU64>,
    /// Node-cache misses per shard (rows the node read from its resident storage).
    cache_misses: Vec<AtomicU64>,
    /// Node-cache insertions per shard.
    cache_insertions: Vec<AtomicU64>,
    /// Node-cache evictions per shard.
    cache_evictions: Vec<AtomicU64>,
    /// Node-cache admission rejections per shard (TinyLFU only).
    cache_rejections: Vec<AtomicU64>,
}

impl ClusterCounters {
    fn new(
        shards: usize,
        config: &ClusterConfig,
        placement: Placement,
        hot_replicas: usize,
    ) -> Self {
        Self {
            shards,
            workers_per_shard: config.workers_per_shard,
            placement,
            hot_replicas,
            queue_capacity: config.queue_capacity,
            served: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            rejections: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            depth_max: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            fetches: AtomicU64::new(0),
            subrequests: AtomicU64::new(0),
            hops: AtomicU64::new(0),
            cross_bytes: AtomicU64::new(0),
            local_bytes: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            missing_rows: AtomicU64::new(0),
            cache_hits: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_misses: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_insertions: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_evictions: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_rejections: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Fold one fetch's node-cache counter deltas into shard `shard`'s slice. The
    /// caller records *before* pushing the fetch's reply, so the queue's
    /// happens-before edge makes the deltas visible to the router by gather time.
    pub(crate) fn record_node_cache(&self, shard: usize, delta: &CacheStats) {
        // `.get` rather than indexing: a socket node's STATS frame names its shard on
        // the wire, and a corrupt frame must not panic the link's reader thread.
        let add = |counters: &[AtomicU64], value: u64| {
            if let Some(counter) = counters.get(shard) {
                counter.fetch_add(value, Ordering::Relaxed);
            }
        };
        add(&self.cache_hits, delta.hits);
        add(&self.cache_misses, delta.misses);
        add(&self.cache_insertions, delta.insertions);
        add(&self.cache_evictions, delta.evictions);
        add(&self.cache_rejections, delta.rejections);
    }

    /// The node-cache counters summed across shards, in [`CacheStats`] form so the
    /// engine can merge them with its router-side cache block.
    pub(crate) fn node_cache_stats(&self) -> CacheStats {
        let sum = |counters: &[AtomicU64]| -> u64 {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        };
        CacheStats {
            hits: sum(&self.cache_hits),
            coalesced: 0,
            misses: sum(&self.cache_misses),
            insertions: sum(&self.cache_insertions),
            evictions: sum(&self.cache_evictions),
            rejections: sum(&self.cache_rejections),
        }
    }

    pub(crate) fn reset(&self) {
        for counter in self
            .served
            .iter()
            .chain(&self.rejections)
            .chain(&self.depth_max)
            .chain(&self.cache_hits)
            .chain(&self.cache_misses)
            .chain(&self.cache_insertions)
            .chain(&self.cache_evictions)
            .chain(&self.cache_rejections)
        {
            counter.store(0, Ordering::Relaxed);
        }
        self.fetches.store(0, Ordering::Relaxed);
        self.subrequests.store(0, Ordering::Relaxed);
        self.hops.store(0, Ordering::Relaxed);
        self.cross_bytes.store(0, Ordering::Relaxed);
        self.local_bytes.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.hedges.store(0, Ordering::Relaxed);
        self.hedge_wins.store(0, Ordering::Relaxed);
        self.promotions.store(0, Ordering::Relaxed);
        self.missing_rows.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ClusterStats {
        let load = |counters: &[AtomicU64]| -> Vec<u64> {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        ClusterStats {
            shards: self.shards,
            workers_per_shard: self.workers_per_shard,
            placement: self.placement.label().to_string(),
            hot_replicas: self.hot_replicas,
            queue_capacity: self.queue_capacity,
            fetches: self.fetches.load(Ordering::Relaxed),
            subrequests: self.subrequests.load(Ordering::Relaxed),
            cross_shard_hops: self.hops.load(Ordering::Relaxed),
            cross_shard_bytes: self.cross_bytes.load(Ordering::Relaxed),
            local_bytes: self.local_bytes.load(Ordering::Relaxed),
            shard_lookups: load(&self.served),
            shard_rejections: load(&self.rejections),
            shard_queue_depth_max: load(&self.depth_max),
            shard_cache_hits: load(&self.cache_hits),
            shard_cache_misses: load(&self.cache_misses),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            missing_rows: self.missing_rows.load(Ordering::Relaxed),
        }
    }
}

/// Closes the failing shard's input queue when a worker unwinds and drops the
/// sub-requests it strands. Routers see the closed queue ([`ShardLink::is_down`]) and
/// give up on the shard's attempts: a shard panic must fail or degrade its routed
/// batches, never deadlock them.
struct ShardPanicGuard<'a, T> {
    input: &'a BoundedQueue<SubRequest<T>>,
}

impl<T> Drop for ShardPanicGuard<'_, T> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        self.input.close();
        // The queue is closed, so this drains the backlog and terminates.
        while let Pop::Item(_) = self.input.pop() {}
    }
}

/// A shard node's worker loop: pop sub-requests, copy the resident rows, reply. A
/// [`ChaosPlan`] aimed at this shard injects its fault here: a kill panics through the
/// panic guard (exactly the organic failure path), a stall parks the worker without
/// dying, slow sleeps before serving, and a dropped reply is served but never sent.
///
/// With a node `cache` (shared by every worker of this shard), rows are served through
/// it — a hit copies the cached row, a miss reads storage and admits the row per the
/// cache's policy — and the per-fetch counter deltas land in [`ClusterCounters`]
/// *before* the reply is pushed, so the router observes them by gather time.
fn run_shard_worker<T: Lane>(
    shard: usize,
    storage: Arc<ShardStorage<T>>,
    input: Arc<BoundedQueue<SubRequest<T>>>,
    counters: Arc<ClusterCounters>,
    chaos: Option<Arc<ChaosPlan>>,
    cache: Option<Arc<Mutex<HotRowCache<T>>>>,
) {
    loop {
        let request = match input.pop() {
            Pop::Item(request) => request,
            Pop::Closed => return,
            Pop::TimedOut => continue,
        };
        let _guard = ShardPanicGuard { input: &input };
        match chaos
            .as_deref()
            .map_or(FaultAction::None, |plan| plan.action(shard))
        {
            FaultAction::None => {}
            FaultAction::Kill => panic!("shard {shard}: chaos kill"),
            FaultAction::Stall => {
                // Stay "up" but never answer (or pop) again; exit only when the
                // cluster shuts the queue down so the test harness can still join us.
                while !input.is_closed() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return;
            }
            FaultAction::SlowUs(delay_us) => {
                std::thread::sleep(Duration::from_micros(delay_us));
            }
            FaultAction::DropReply => continue,
        }
        assert!(
            !request.poison,
            "shard {shard}: poisoned sub-request (injected failure)"
        );
        // A traced request carries the tracer's clock: the worker measures its own
        // server-side span on it (queue wait so far, then cache probe and storage
        // read). On a frozen manual clock every duration is exactly zero, so traced
        // replays stay byte-deterministic across worker counts.
        let mut span = NodeSpan::default();
        let clock = request.trace.as_ref().map(|context| {
            span.queue_wait_us = (context.clock.now_us() - context.enqueued_us).max(0.0);
            &*context.clock
        });
        let mut data = Vec::with_capacity(request.rows.len() * storage.dim());
        let mut cache = cache
            .as_deref()
            .map(|cache| cache.lock().expect("node cache lock"));
        let delta = read_rows(
            request.rows.iter().copied(),
            cache.as_deref_mut(),
            |row| Some(storage.row(row)),
            clock,
            &mut span,
            &mut data,
        )
        .expect("storage.row panics on a non-resident row");
        drop(cache);
        if let Some(delta) = delta {
            counters.record_node_cache(shard, &delta);
        }
        counters.served[shard].fetch_add(request.rows.len() as u64, Ordering::Relaxed);
        // A closed reply queue means the router is gone; dropping the response is
        // correct.
        let _ = request.reply.push(SubResponse {
            tag: request.tag,
            shard,
            data,
            node_span: request.trace.is_some().then_some(span),
        });
    }
}

/// Serve `rows` into `out` the way a shard node does, in-process or behind a socket:
/// through the node `cache` when there is one — a hit copies the cached row, a miss
/// reads `storage` and admits the row per the cache's policy — else straight from
/// `storage`. With a `clock` (a traced fetch) the cache-probe and storage-read times
/// land in `span`. Returns the fetch's node-cache counter delta (`None` without a
/// cache), or the first row `storage` does not hold.
pub(crate) fn read_rows<'a, T: Copy + Default + 'a>(
    rows: impl IntoIterator<Item = u32>,
    mut cache: Option<&mut HotRowCache<T>>,
    storage: impl Fn(u32) -> Option<&'a [T]>,
    clock: Option<&dyn Clock>,
    span: &mut NodeSpan,
    out: &mut Vec<T>,
) -> Result<Option<CacheStats>, u32> {
    let before = cache.as_deref().map(HotRowCache::stats);
    let now = || clock.map(Clock::now_us);
    let elapsed = |started: Option<f64>| match (now(), started) {
        (Some(now), Some(started)) => (now - started).max(0.0),
        _ => 0.0,
    };
    for row in rows {
        if let Some(cache) = cache.as_deref_mut() {
            let probe_started = now();
            let hit = cache
                .lookup(row)
                .map(|resident| out.extend_from_slice(resident));
            span.cache_probe_us += elapsed(probe_started);
            if hit.is_some() {
                continue;
            }
        }
        let read_started = now();
        let fetched = storage(row).ok_or(row)?;
        out.extend_from_slice(fetched);
        if let Some(cache) = cache.as_deref_mut() {
            cache.insert(row, fetched);
        }
        span.storage_read_us += elapsed(read_started);
    }
    Ok(before
        .zip(cache.as_deref())
        .map(|(before, cache)| cache.stats().delta_since(&before)))
}

/// The owner of the shard node threads. Keep it alive while any [`ClusterClient`] (or
/// engine built on one) is serving; [`ClusterHandle::shutdown`] closes every shard
/// queue, joins the workers and surfaces the first worker panic.
pub struct ClusterHandle {
    closers: Vec<Box<dyn Fn() + Send + Sync>>,
    workers: Vec<(usize, JoinHandle<()>)>,
    counters: Arc<ClusterCounters>,
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("shards", &self.closers.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ClusterHandle {
    /// A snapshot of the cluster's traffic and queue counters.
    pub fn stats(&self) -> ClusterStats {
        self.counters.snapshot()
    }

    /// Close every shard queue, join all workers, and report the first worker panic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShardFailed`] naming the first shard whose worker panicked.
    pub fn shutdown(mut self) -> Result<ClusterStats, ServeError> {
        self.stop().map(|()| self.counters.snapshot())
    }

    fn stop(&mut self) -> Result<(), ServeError> {
        for close in &self.closers {
            close();
        }
        let mut failed = None;
        for (shard, handle) in self.workers.drain(..) {
            if handle.join().is_err() {
                failed = failed.or(Some(shard));
            }
        }
        match failed {
            Some(shard) => Err(ServeError::ShardFailed { shard }),
            None => Ok(()),
        }
    }
}

impl Drop for ClusterHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The router's channel to one shard node: an in-process bounded queue, or a socket
/// link to a shard-node process ([`crate::transport`]). Both give the router the same
/// three verbs — non-blocking send, deadline send, closed? — so the fetch
/// path is transport-agnostic.
pub(crate) enum ShardLink<T> {
    Queue(Arc<BoundedQueue<SubRequest<T>>>),
    Socket(SocketLink<T>),
}

impl<T> std::fmt::Debug for ShardLink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardLink::Queue(_) => f.write_str("ShardLink::Queue"),
            ShardLink::Socket(_) => f.write_str("ShardLink::Socket"),
        }
    }
}

impl<T: Lane> ShardLink<T> {
    /// Whether the channel can no longer deliver: a closed queue (the in-process node
    /// died or shut down) or a broken socket.
    fn is_down(&self) -> bool {
        match self {
            ShardLink::Queue(input) => input.is_closed(),
            ShardLink::Socket(link) => link.is_closed(),
        }
    }
}

/// Why a sub-request dispatch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchFail {
    /// The shard's channel is closed — it is dead, route around it.
    Closed,
    /// The shard's queue stayed full past the deadline — treat as a timeout.
    Timeout,
}

impl<T> From<PushError<T>> for DispatchFail {
    fn from(error: PushError<T>) -> Self {
        match error {
            PushError::Full(_) => DispatchFail::Timeout,
            PushError::Closed(_) => DispatchFail::Closed,
        }
    }
}

/// In-flight bookkeeping for one dispatched attempt of a sub-request.
#[derive(Debug)]
struct Attempt {
    tag: u64,
    shard: usize,
    sent_us: f64,
}

/// One shard's slice of a fetch, tracked until its rows are written (by a
/// response) or degraded (zero-filled).
#[derive(Debug)]
struct FetchUnit {
    rows: Vec<u32>,
    /// Flat output positions, parallel to `rows`.
    positions: Vec<u32>,
    /// The shard the plan routed this slice to.
    origin: usize,
    /// The shard the most recent dispatch targeted.
    last_target: usize,
    /// Dispatches so far (initial + retries + promotions; hedges do not count against
    /// the retry budget).
    dispatches: u32,
    attempts: Vec<Attempt>,
    /// Backoff gate: `(target shard, clock time the retry may go out)`.
    waiting: Option<(usize, f64)>,
    hedged: bool,
    done: bool,
}

/// The armed trace capture of one batch's fetches: attempt and decision events stamped
/// on the *tracer's* clock (not the router's resilience clock), so a frozen manual
/// clock freezes trace timestamps even when the router runs real deadlines.
#[derive(Debug)]
struct TraceSink {
    clock: Arc<dyn Clock>,
    events: Vec<FetchEvent>,
    /// Server-side spans gathered off the responses, tagged with the attempt tag and
    /// serving shard so the trace assembler can attach each to its fetch span.
    node_spans: Vec<NodeSpanRecord>,
}

/// A router into the cluster: splits fetch work by shard, fans sub-requests out, and
/// gathers the responses. Cloning creates another independent router over the same
/// shard nodes (each clone has its own reply queue), which is how the threaded
/// runtime's per-worker engine clones share one cluster.
#[derive(Debug)]
pub struct ClusterClient<T> {
    plan: Arc<ShardPlan>,
    links: Vec<ShardLink<T>>,
    reply: Arc<BoundedQueue<SubResponse<T>>>,
    dim: usize,
    bus: RscBus,
    counters: Arc<ClusterCounters>,
    /// Interconnect cost of fetches since the engine last collected it. Hops within one
    /// fetch compose in parallel (independent bus segments), fetches serially.
    pending_cost: Cost,
    pending_breakdown: CostBreakdown,
    next_tag: u64,
    poison_next: bool,
    /// Fault-tolerance policy; `None` runs the strict policy ([`STRICT`]).
    resilience: Option<ResilienceConfig>,
    /// Deadline source for the gather loop (injectable for deterministic tests).
    clock: Arc<dyn Clock>,
    /// Shards this router has concluded are dead (closed link, or
    /// [`DEAD_AFTER_STRIKES`] timeout strikes).
    dead: Vec<bool>,
    /// Consecutive attempt timeouts per shard; [`DEAD_AFTER_STRIKES`] strikes declare
    /// the shard dead so a stalled node stops costing a full deadline on every
    /// subsequent fetch.
    timeout_strikes: Vec<u32>,
    /// Row ids degraded to zero-filled lookups since the engine last collected them.
    missing: Vec<u32>,
    /// Armed per traced batch via [`RowSource::trace_arm`], drained by
    /// [`RowSource::trace_drain`]; `None` (the untraced default) records nothing.
    trace: Option<TraceSink>,
    /// Per-shard fault deltas since the engine last drained them
    /// ([`RowSource::take_fault_deltas`]). Buffered per router clone — never read
    /// from the shared atomics, whose deltas would race across worker clones — so
    /// the metrics plane's per-window attribution stays deterministic.
    fault_window: Vec<ShardFaultDelta>,
    /// Per-shard-node cache configuration, when the cluster was spawned with one.
    /// The caches live with the shard nodes; this side only reads their counters.
    node_cache: Option<NodeCacheConfig>,
}

impl<T: Lane> Clone for ClusterClient<T> {
    fn clone(&self) -> Self {
        let reply = Arc::new(BoundedQueue::new(self.reply.capacity()));
        let links = self
            .links
            .iter()
            .map(|link| match link {
                ShardLink::Queue(input) => ShardLink::Queue(input.clone()),
                ShardLink::Socket(socket) => ShardLink::Socket(
                    socket
                        .reconnect(reply.clone())
                        .expect("reconnecting a router clone to its shard node"),
                ),
            })
            .collect();
        Self {
            plan: self.plan.clone(),
            links,
            reply,
            dim: self.dim,
            bus: self.bus,
            counters: self.counters.clone(),
            pending_cost: Cost::ZERO,
            pending_breakdown: CostBreakdown::new(),
            next_tag: 0,
            poison_next: false,
            resilience: self.resilience,
            clock: self.clock.clone(),
            dead: vec![false; self.dead.len()],
            timeout_strikes: vec![0; self.timeout_strikes.len()],
            missing: Vec::new(),
            trace: None,
            fault_window: vec![ShardFaultDelta::default(); self.fault_window.len()],
            node_cache: self.node_cache,
        }
    }
}

impl<T> Drop for ClusterClient<T> {
    /// Close the reply queue so a shard worker holding a straggler response for this
    /// router sees `Closed` (and drops it) instead of blocking on a full queue nobody
    /// will ever drain.
    fn drop(&mut self) {
        self.reply.close();
    }
}

/// The gather policy of a router without a [`ResilienceConfig`] over in-process
/// queues: no deadline, no retries, no hedging, and a dispatch that blocks once the
/// shard queue is full. Under it a unit no shard can serve fails the fetch with
/// [`ServeError::ShardFailed`] instead of degrading.
const STRICT: ResilienceConfig = ResilienceConfig {
    request_timeout_us: f64::INFINITY,
    hedge_after_us: f64::INFINITY,
    max_retries: 0,
    backoff_us: 0.0,
};

/// One fetch's state in the gather loop.
struct Gather<'a, T> {
    units: Vec<FetchUnit>,
    /// Live attempt tags: `tag -> (unit index, whether the attempt is a hedge)`.
    tags: HashMap<u64, (usize, bool)>,
    /// Output chunks by flat position; each is taken exactly once, by a response or a
    /// degrade.
    chunks: Vec<Option<&'a mut [T]>>,
    /// Cost of this fetch's cross-shard hops, which compose in parallel.
    fanout_cost: Option<Cost>,
    /// The split's home shard; sub-requests elsewhere pay an RSC-bus hop.
    home: usize,
    policy: ResilienceConfig,
    /// Whether a unit no shard can serve degrades (`false` under [`STRICT`]).
    degrade: bool,
    /// How long a dispatch may wait on a full shard queue (`None` blocks).
    push_wait: Option<Duration>,
    /// The shard whose loss fails this fetch (strict policy only).
    failed: Option<usize>,
}

impl<T: Lane> ClusterClient<T> {
    /// Test hook: poison the next fetch's sub-requests so the serving workers panic.
    #[cfg(test)]
    fn poison_next_fetch(&mut self) {
        self.poison_next = true;
    }

    /// Row ids zero-filled since the last call (the engine excludes them from the
    /// cache and counts the degraded queries).
    pub fn take_missing_rows(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.missing)
    }

    /// Record a fetch event on the armed trace sink — a single-branch no-op for the
    /// untraced default, so tracing cannot perturb untraced batches.
    fn trace_event(&mut self, kind: FetchEventKind, shard: usize, tag: u64) {
        if let Some(sink) = &mut self.trace {
            let at_us = sink.clock.now_us();
            sink.events.push(FetchEvent {
                kind,
                shard: shard as u32,
                tag,
                at_us,
            });
        }
    }

    /// The trace context to carry on a sub-request dispatched right now: the sink's
    /// clock plus its current time. `None` when the sink is unarmed.
    fn trace_context(&self) -> Option<TraceContext> {
        self.trace.as_ref().map(|sink| TraceContext {
            clock: sink.clock.clone(),
            enqueued_us: sink.clock.now_us(),
        })
    }

    /// Stash a gathered response's server-side span on the armed sink (no-op when
    /// untraced or when the response carries none — an untraced attempt's reply).
    fn trace_node_span(&mut self, shard: usize, tag: u64, span: Option<NodeSpan>) {
        if let (Some(sink), Some(span)) = (&mut self.trace, span) {
            sink.node_spans.push(NodeSpanRecord {
                shard: shard as u32,
                tag,
                span,
            });
        }
    }

    /// The first shard whose link is still up and that this router has not declared
    /// dead — preferring any shard other than `avoid`, falling back to `avoid` itself
    /// (a same-shard retry) when it is the only one left.
    fn healthy_shard(&self, avoid: usize) -> Option<usize> {
        let alive = |shard: &usize| !self.dead[*shard] && !self.links[*shard].is_down();
        (0..self.links.len())
            .filter(|&shard| shard != avoid)
            .find(alive)
            .or_else(|| Some(avoid).filter(alive))
    }

    /// Send one attempt's sub-request down a link: `try` first and count a full queue
    /// as a rejection, then wait for room — up to `push_wait`, so a wedged shard queue
    /// surfaces as [`DispatchFail::Timeout`], or as long as it takes when `push_wait`
    /// is `None` (the strict policy's backpressure).
    fn dispatch_raw(
        &self,
        shard: usize,
        tag: u64,
        rows: &[u32],
        push_wait: Option<Duration>,
    ) -> Result<(), DispatchFail> {
        let depth = match &self.links[shard] {
            ShardLink::Queue(input) => {
                let request = SubRequest {
                    tag,
                    rows: rows.to_vec(),
                    reply: self.reply.clone(),
                    poison: self.poison_next,
                    trace: self.trace_context(),
                };
                match input.try_push(request) {
                    Err(PushError::Full(request)) => {
                        self.counters.rejections[shard].fetch_add(1, Ordering::Relaxed);
                        match push_wait {
                            Some(wait) => input.push_timeout(request, wait),
                            None => input.push(request),
                        }
                    }
                    sent => sent,
                }
                .map_err(DispatchFail::from)?
            }
            ShardLink::Socket(link) => {
                let frame = transport::encode_fetch(shard as u32, tag, rows, self.trace.is_some());
                let depth = match link.try_send(frame) {
                    Err(PushError::Full(frame)) => {
                        self.counters.rejections[shard].fetch_add(1, Ordering::Relaxed);
                        match push_wait {
                            Some(wait) => link.send_timeout(frame, wait),
                            None => link.send_blocking(frame),
                        }
                    }
                    sent => sent,
                }
                .map_err(DispatchFail::from)?;
                // A remote node can't bump this process's counters, so its served-rows
                // share (shard imbalance in the report) is accounted at dispatch.
                self.counters.served[shard].fetch_add(rows.len() as u64, Ordering::Relaxed);
                depth
            }
        };
        self.counters.depth_max[shard].fetch_max(depth as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Dispatch unit `i` at `target`, charging traffic counters and the bus on success
    /// and registering the attempt's tag for the gather loop. On failure the target is
    /// marked dead (closed link) or struck (deadline), and the caller recovers.
    fn dispatch_unit(
        &mut self,
        g: &mut Gather<'_, T>,
        i: usize,
        target: usize,
        hedge: bool,
    ) -> Result<(), DispatchFail> {
        let tag = self.next_tag;
        self.next_tag += 1;
        g.units[i].dispatches += u32::from(!hedge);
        g.units[i].last_target = target;
        match self.dispatch_raw(target, tag, &g.units[i].rows, g.push_wait) {
            Ok(()) => {
                self.counters.subrequests.fetch_add(1, Ordering::Relaxed);
                let rows = g.units[i].rows.len();
                let response_bytes = rows * self.dim * std::mem::size_of::<T>();
                if target == g.home {
                    self.counters
                        .local_bytes
                        .fetch_add(response_bytes as u64, Ordering::Relaxed);
                } else {
                    let request_bytes = rows * std::mem::size_of::<u32>();
                    self.counters.hops.fetch_add(1, Ordering::Relaxed);
                    // Row payload only, symmetric with `local_bytes`, so the cross-traffic
                    // fraction compares like with like; the bus *charge* still covers the
                    // index bytes of the sub-request.
                    self.counters
                        .cross_bytes
                        .fetch_add(response_bytes as u64, Ordering::Relaxed);
                    let hop = self.bus.hop(request_bytes, response_bytes);
                    self.pending_breakdown.merge(&hop.breakdown);
                    g.fanout_cost = Some(match g.fanout_cost.take() {
                        None => hop.cost,
                        Some(cost) => cost.parallel(hop.cost),
                    });
                }
                g.units[i].attempts.push(Attempt {
                    tag,
                    shard: target,
                    sent_us: self.clock.now_us(),
                });
                g.tags.insert(tag, (i, hedge));
                let kind = if hedge {
                    FetchEventKind::Hedge
                } else {
                    FetchEventKind::Dispatch
                };
                self.trace_event(kind, target, tag);
                Ok(())
            }
            Err(DispatchFail::Closed) => {
                self.dead[target] = true;
                Err(DispatchFail::Closed)
            }
            Err(DispatchFail::Timeout) => {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                self.fault_window[target].timeouts += 1;
                self.strike(target);
                self.trace_event(FetchEventKind::Timeout, target, tag);
                Err(DispatchFail::Timeout)
            }
        }
    }

    /// Record a timeout strike; [`DEAD_AFTER_STRIKES`] consecutive strikes declare the
    /// shard dead so a stalled node stops costing a full deadline per fetch. The
    /// budget is one deeper than the transient faults retries are expected to rescue
    /// (a default drop burst resolves with zero degradation), while a genuinely silent
    /// shard still trips the breaker within a bounded number of deadlines.
    fn strike(&mut self, shard: usize) {
        self.timeout_strikes[shard] += 1;
        if self.timeout_strikes[shard] >= DEAD_AFTER_STRIKES {
            self.dead[shard] = true;
        }
    }

    /// Give up on unit `i`. A degrading policy zero-fills its rows and records them
    /// missing; the strict policy fails the fetch, blaming the shard it last tried.
    fn lose_unit(&mut self, g: &mut Gather<'_, T>, i: usize) {
        let unit = &mut g.units[i];
        unit.done = true;
        unit.attempts.clear();
        if !g.degrade {
            g.failed.get_or_insert(unit.last_target);
            return;
        }
        for (&row, &position) in unit.rows.iter().zip(&unit.positions) {
            let chunk = g.chunks[position as usize]
                .take()
                .expect("each position is served exactly once");
            chunk.fill(T::default());
            self.missing.push(row);
        }
        self.counters
            .missing_rows
            .fetch_add(unit.rows.len() as u64, Ordering::Relaxed);
        let origin = unit.origin;
        self.trace_event(FetchEventKind::Degrade, origin, 0);
    }

    /// A unit has no live attempts left: retry, promote onto a replica-holding shard,
    /// schedule a backoff, or give up — looping because a chosen target's dispatch can
    /// itself fail immediately. The strict policy gives up at once.
    fn recover_unit(&mut self, g: &mut Gather<'_, T>, i: usize) {
        loop {
            if g.units[i].done {
                return;
            }
            if !g.degrade || g.units[i].dispatches > g.policy.max_retries {
                // Strict, or the retry budget is spent (initial attempt + max_retries).
                self.lose_unit(g, i);
                return;
            }
            let failed = g.units[i].last_target;
            let all_replicated = g.units[i]
                .rows
                .iter()
                .all(|&row| self.plan.is_replicated(row));
            if all_replicated {
                // Every row has a copy on every shard: any healthy shard can serve it.
                let Some(target) = self.healthy_shard(failed) else {
                    self.lose_unit(g, i);
                    return;
                };
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                self.fault_window[failed].retries += 1;
                self.trace_event(FetchEventKind::Retry, failed, 0);
                if target != g.units[i].origin {
                    self.counters.promotions.fetch_add(1, Ordering::Relaxed);
                    self.fault_window[target].promotions += 1;
                    self.trace_event(FetchEventKind::Promotion, target, 0);
                }
                if self.dispatch_unit(g, i, target, false).is_ok() {
                    return;
                }
            } else if !self.dead[failed] && !self.links[failed].is_down() {
                // Unreplicated rows and the owner may just be slow: back off, retry it.
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                self.fault_window[failed].retries += 1;
                self.trace_event(FetchEventKind::Retry, failed, 0);
                let delay = g.policy.backoff_us * f64::from(g.units[i].dispatches);
                g.units[i].waiting = Some((failed, self.clock.now_us() + delay));
                return;
            } else {
                // The owner is dead. Promote the replicated subset onto a healthy
                // shard; the cold remainder has no surviving copy and degrades now.
                let unit = &mut g.units[i];
                let mut hot_rows = Vec::new();
                let mut hot_positions = Vec::new();
                let mut cold = 0usize;
                for (&row, &position) in unit.rows.iter().zip(&unit.positions) {
                    if self.plan.is_replicated(row) {
                        hot_rows.push(row);
                        hot_positions.push(position);
                    } else {
                        let chunk = g.chunks[position as usize]
                            .take()
                            .expect("each position is served exactly once");
                        chunk.fill(T::default());
                        self.missing.push(row);
                        cold += 1;
                    }
                }
                self.counters
                    .missing_rows
                    .fetch_add(cold as u64, Ordering::Relaxed);
                unit.rows = hot_rows;
                unit.positions = hot_positions;
                if cold > 0 {
                    self.trace_event(FetchEventKind::Degrade, failed, 0);
                }
                if g.units[i].rows.is_empty() {
                    g.units[i].done = true;
                    return;
                }
                let Some(target) = self.healthy_shard(failed) else {
                    self.lose_unit(g, i);
                    return;
                };
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                self.counters.promotions.fetch_add(1, Ordering::Relaxed);
                self.fault_window[failed].retries += 1;
                self.fault_window[target].promotions += 1;
                self.trace_event(FetchEventKind::Retry, failed, 0);
                self.trace_event(FetchEventKind::Promotion, target, 0);
                if self.dispatch_unit(g, i, target, false).is_ok() {
                    return;
                }
            }
        }
    }

    /// The one fan-out/gather. The batch's misses are split by shard into units, and
    /// every dispatch of a unit is an attempt with its own tag. The loop runs the
    /// router's policy off the injected clock: it expires attempts whose shard went
    /// down or whose deadline passed, retries with backoff, hedges a slow primary onto
    /// a replica-holding shard, and promotes a dead shard's replicated rows. What no
    /// healthy shard can serve is zero-filled and recorded in `missing` — or, under
    /// [`STRICT`], fails the fetch once every dispatched attempt has been gathered.
    /// Rows move whole, never partial sums, so every position written by a response
    /// is bit-identical to the healthy run.
    fn gather(&mut self, work: Vec<(u32, &mut [T])>) -> Result<(), ServeError> {
        let (policy, degrade) = match self.resilience {
            Some(policy) => (policy, true),
            None => (STRICT, false),
        };
        // Stragglers cannot be confused with this fetch (attempt tags are unique), but
        // drain them so the bounded reply queue starts with maximal slack.
        while let Pop::Item(_) = self.reply.pop_timeout(Duration::ZERO) {}
        let rows: Vec<u32> = work.iter().map(|(row, _)| *row).collect();
        let split = self.plan.split(&rows);
        self.counters.fetches.fetch_add(1, Ordering::Relaxed);
        let mut g = Gather {
            units: split
                .per_shard
                .into_iter()
                .map(|sub| FetchUnit {
                    origin: sub.shard,
                    last_target: sub.shard,
                    rows: sub.rows,
                    positions: sub.positions,
                    dispatches: 0,
                    attempts: Vec::new(),
                    waiting: None,
                    hedged: false,
                    done: false,
                })
                .collect(),
            tags: HashMap::new(),
            chunks: work.into_iter().map(|(_, chunk)| Some(chunk)).collect(),
            fanout_cost: None,
            home: split.home,
            policy,
            degrade,
            // A wedged shard queue may stall a dispatch, but never past the request
            // deadline (capped so wall-clock tests stay fast).
            push_wait: policy.request_timeout_us.is_finite().then(|| {
                Duration::from_secs_f64((policy.request_timeout_us / 1e6).clamp(0.0, 2.0))
            }),
            failed: None,
        };

        for i in 0..g.units.len() {
            let target = g.units[i].origin;
            // Circuit breaker: a shard this client already declared dead is not worth
            // another deadline — recover (promote or degrade) immediately.
            if self.dead[target] || self.links[target].is_down() {
                self.dead[target] = true;
                // The breaker skip is the down-cause timeout taken eagerly: record it so
                // every degraded batch's trace shows timeout -> recovery, not just the
                // batch that first caught the dead shard's expired attempt.
                self.trace_event(FetchEventKind::Timeout, target, 0);
                self.recover_unit(&mut g, i);
            } else if self.dispatch_unit(&mut g, i, target, false).is_err() {
                self.recover_unit(&mut g, i);
            }
        }

        while g.units.iter().any(|unit| !unit.done) {
            let now = self.clock.now_us();
            for i in 0..g.units.len() {
                if g.units[i].done {
                    continue;
                }
                if let Some((target, ready_us)) = g.units[i].waiting {
                    if now >= ready_us {
                        g.units[i].waiting = None;
                        if self.dispatch_unit(&mut g, i, target, false).is_err() {
                            self.recover_unit(&mut g, i);
                        }
                    }
                    continue;
                }
                // Expire dead attempts: a downed link (a worker panic closes its input
                // queue) fails its attempts immediately, a silent shard on the deadline
                // (enough strikes and the router stops paying a full deadline for it on
                // every fetch).
                let mut k = 0;
                while k < g.units[i].attempts.len() {
                    let shard = g.units[i].attempts[k].shard;
                    let down = self.dead[shard] || self.links[shard].is_down();
                    let timed_out =
                        now - g.units[i].attempts[k].sent_us >= policy.request_timeout_us;
                    if down || timed_out {
                        if down {
                            self.dead[shard] = true;
                        } else {
                            self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                            self.fault_window[shard].timeouts += 1;
                            self.strike(shard);
                        }
                        let attempt = g.units[i].attempts.remove(k);
                        g.tags.remove(&attempt.tag);
                        // One Timeout event for both expiry causes (deadline passed,
                        // shard down), so chaos trace sequences are stable.
                        self.trace_event(FetchEventKind::Timeout, shard, attempt.tag);
                    } else {
                        k += 1;
                    }
                }
                if g.units[i].attempts.is_empty() {
                    self.recover_unit(&mut g, i);
                    continue;
                }
                // Hedge a slow, still-unanswered attempt onto a replica-holding shard.
                if !g.units[i].hedged
                    && g.units[i].attempts.len() == 1
                    && now - g.units[i].attempts[0].sent_us >= policy.hedge_after_us
                    && g.units[i]
                        .rows
                        .iter()
                        .all(|&row| self.plan.is_replicated(row))
                {
                    if let Some(target) = self.healthy_shard(g.units[i].attempts[0].shard) {
                        g.units[i].hedged = true;
                        self.counters.hedges.fetch_add(1, Ordering::Relaxed);
                        // A failed hedge dispatch is harmless: the primary is live.
                        let _ = self.dispatch_unit(&mut g, i, target, true);
                    }
                }
            }
            if g.units.iter().all(|unit| unit.done) {
                break;
            }
            match self.reply.pop_timeout(GATHER_POLL) {
                Pop::Item(response) => {
                    let Some((i, was_hedge)) = g.tags.remove(&response.tag) else {
                        continue; // an expired attempt's straggler, or a hedge loser
                    };
                    if g.units[i].done {
                        continue;
                    }
                    self.trace_event(FetchEventKind::Reply, response.shard, response.tag);
                    self.trace_node_span(response.shard, response.tag, response.node_span);
                    for (k, &position) in g.units[i].positions.iter().enumerate() {
                        let chunk = g.chunks[position as usize]
                            .take()
                            .expect("each position is served exactly once");
                        chunk.copy_from_slice(&response.data[k * self.dim..(k + 1) * self.dim]);
                    }
                    if was_hedge {
                        self.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    self.timeout_strikes[response.shard] = 0;
                    // Forget the losing sibling attempt (if the unit was hedged) so its
                    // late response cannot double-write.
                    for attempt in g.units[i].attempts.drain(..) {
                        g.tags.remove(&attempt.tag);
                    }
                    g.units[i].done = true;
                }
                Pop::Closed => {
                    // Our own reply queue closed under us: nothing can ever arrive
                    // again, so everything still pending is lost.
                    for i in 0..g.units.len() {
                        if !g.units[i].done {
                            self.lose_unit(&mut g, i);
                        }
                    }
                }
                Pop::TimedOut => {}
            }
        }
        if let Some(cost) = g.fanout_cost {
            self.pending_cost = self.pending_cost.serial(cost);
        }
        self.poison_next = false;
        match g.failed {
            Some(shard) => Err(ServeError::ShardFailed { shard }),
            None => Ok(()),
        }
    }
}

impl<T: Lane> RowSource<T> for ClusterClient<T> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    fn home_shard(&self, history: &[u32]) -> usize {
        self.plan.home_shard(history.iter().copied())
    }

    fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError> {
        self.plan.check_indices(indices)
    }

    fn fetch_rows(&mut self, work: Vec<(u32, &mut [T])>) -> Result<(), ServeError> {
        if work.is_empty() {
            return Ok(());
        }
        self.gather(work)
    }

    fn take_missing(&mut self) -> Vec<u32> {
        self.take_missing_rows()
    }

    fn node_cached(&self) -> bool {
        self.node_cache.is_some()
    }

    fn node_cache_stats(&self) -> CacheStats {
        self.counters.node_cache_stats()
    }

    /// Zeroes every shared cluster counter, not only the node-cache block.
    fn reset_stats(&mut self) {
        self.counters.reset();
    }

    fn take_interconnect(&mut self) -> (Cost, CostBreakdown) {
        (
            std::mem::take(&mut self.pending_cost),
            std::mem::take(&mut self.pending_breakdown),
        )
    }

    fn cluster_counters(&self) -> Option<Arc<ClusterCounters>> {
        Some(self.counters.clone())
    }

    fn trace_arm(&mut self, clock: &Arc<dyn Clock>) {
        self.trace = Some(TraceSink {
            clock: clock.clone(),
            events: Vec::new(),
            node_spans: Vec::new(),
        });
    }

    fn trace_drain_node_spans(&mut self) -> Vec<NodeSpanRecord> {
        self.trace
            .as_mut()
            .map_or_else(Vec::new, |sink| std::mem::take(&mut sink.node_spans))
    }

    fn trace_drain(&mut self) -> Vec<FetchEvent> {
        self.trace.take().map_or_else(Vec::new, |sink| sink.events)
    }

    fn take_fault_deltas(&mut self) -> Vec<ShardFaultDelta> {
        if self.fault_window.iter().all(ShardFaultDelta::is_zero) {
            return Vec::new();
        }
        let shards = self.fault_window.len();
        std::mem::replace(
            &mut self.fault_window,
            vec![ShardFaultDelta::default(); shards],
        )
    }

    fn pool_direct(&mut self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError> {
        if out.len() != batch.len() * self.dim {
            return Err(ServeError::ShapeMismatch {
                what: "batch pooling output",
                expected: batch.len() * self.dim,
                actual: out.len(),
            });
        }
        self.check_indices(batch.indices())?;
        // Coalesce repeated rows onto a single fetch, exactly like the cached path's
        // in-flight coalescing: duplicates are copied from the first occurrence's
        // staging slot, so the routed traffic (and its bus charge) counts each unique
        // row once per batch and cache-off interconnect numbers stay comparable to
        // cache-on ones.
        let dim = self.dim;
        let mut staging = vec![T::default(); batch.total_lookups() * dim];
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        {
            let mut first_position: HashMap<u32, usize> = HashMap::new();
            let mut unique: Vec<(u32, &mut [T])> = Vec::new();
            for ((position, &row), chunk) in batch
                .indices()
                .iter()
                .enumerate()
                .zip(staging.chunks_mut(dim))
            {
                match first_position.entry(row) {
                    std::collections::hash_map::Entry::Occupied(entry) => {
                        duplicates.push((position, *entry.get()));
                    }
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        entry.insert(position);
                        unique.push((row, chunk));
                    }
                }
            }
            self.fetch_rows(unique)?;
        }
        for &(destination, source) in &duplicates {
            staging.copy_within(source * dim..(source + 1) * dim, destination * dim);
        }
        pool_from_staging(&staging, self.dim, batch.offsets(), out);
        Ok(())
    }
}

/// Optional knobs for a cluster spawn: fault injection and an injectable clock.
/// Separate from [`ClusterConfig`] so the config stays plain comparable data.
#[derive(Debug, Default)]
pub struct ClusterOptions {
    /// Inject this fault plan into the shard nodes (in-process workers check it per
    /// sub-request; socket nodes receive it as a `CHAOS` frame).
    pub chaos: Option<Arc<ChaosPlan>>,
    /// Deadline source for the router's gather loop ([`WallClock`] by default).
    pub clock: Option<Arc<dyn Clock>>,
    /// Give every shard node its own hot-row cache (in-process workers share one per
    /// shard; socket nodes are armed with a `CACHE` frame). `None` — and a zero
    /// capacity — leave the nodes uncached.
    pub node_cache: Option<NodeCacheConfig>,
}

/// Spawn the shard nodes for a catalogue and hand back a router plus the owning handle.
#[cfg(test)]
pub(crate) fn spawn_cluster<T: Lane>(
    arena: &RowArena<T>,
    plan: ShardPlan,
    config: &ClusterConfig,
) -> Result<(ClusterClient<T>, ClusterHandle), ServeError> {
    start_cluster(arena, plan, config, None, ClusterOptions::default())
}

/// [`spawn_cluster`] with chaos injection and a custom clock.
#[cfg(test)]
pub(crate) fn spawn_cluster_with<T: Lane>(
    arena: &RowArena<T>,
    plan: ShardPlan,
    config: &ClusterConfig,
    options: ClusterOptions,
) -> Result<(ClusterClient<T>, ClusterHandle), ServeError> {
    start_cluster(arena, plan, config, None, options)
}

/// Start a shard cluster for a catalogue and hand back a router plus the owning handle.
///
/// Without `sockets` every shard node is a set of worker threads in this process that
/// views the caller's [`RowArena`] — loading copies zero rows. With `sockets`,
/// `sockets[shard]` is the listener of an already-running shard-node process (see
/// [`run_shard_node`](crate::transport::run_shard_node)); the router loads each node's
/// resident rows over the wire, and the handle owns shutdown (each node is told to
/// exit) but no threads. Socket links have no strict policy: without a configured
/// resilience they run [`ResilienceConfig::default`].
pub(crate) fn start_cluster<T: Lane>(
    arena: &RowArena<T>,
    plan: ShardPlan,
    config: &ClusterConfig,
    sockets: Option<&[PathBuf]>,
    options: ClusterOptions,
) -> Result<(ClusterClient<T>, ClusterHandle), ServeError> {
    config.validate()?;
    let dim = arena.dim();
    let num_shards = plan.num_shards();
    if let Some(sockets) = sockets.filter(|sockets| sockets.len() != num_shards) {
        return Err(ServeError::InvalidConfig {
            reason: format!(
                "{num_shards} shards need {num_shards} socket paths, got {}",
                sockets.len()
            ),
        });
    }
    let counters = Arc::new(ClusterCounters::new(
        num_shards,
        config,
        plan.placement(),
        plan.hot_replicas(),
    ));
    let node_cache = options.node_cache.filter(|cache| cache.capacity > 0);
    let reply: Arc<BoundedQueue<SubResponse<T>>> =
        Arc::new(BoundedQueue::new(reply_capacity(num_shards)));
    let mut links = Vec::with_capacity(num_shards);
    let mut closers: Vec<Box<dyn Fn() + Send + Sync>> = Vec::with_capacity(num_shards);
    let mut workers = Vec::new();
    for shard in 0..num_shards {
        let (link, closer): (ShardLink<T>, Box<dyn Fn() + Send + Sync>) = match sockets {
            None => {
                let storage = Arc::new(ShardStorage::build(arena, plan.rows_on(shard)));
                let input: Arc<BoundedQueue<SubRequest<T>>> =
                    Arc::new(BoundedQueue::new(config.queue_capacity));
                // One cache per shard *node*, shared by its workers — the cache lives
                // where the rows live, which is the whole point of the per-shard
                // placement.
                let cache = node_cache.map(|cache| {
                    Arc::new(Mutex::new(HotRowCache::with_policy(
                        cache.capacity,
                        dim,
                        cache.policy,
                    )))
                });
                for _ in 0..config.workers_per_shard {
                    let storage = storage.clone();
                    let input = input.clone();
                    let counters = counters.clone();
                    let chaos = options.chaos.clone();
                    let cache = cache.clone();
                    workers.push((
                        shard,
                        std::thread::spawn(move || {
                            run_shard_worker(shard, storage, input, counters, chaos, cache)
                        }),
                    ));
                }
                let closer = {
                    let input = input.clone();
                    Box::new(move || input.close())
                };
                (ShardLink::Queue(input), closer)
            }
            Some(sockets) => {
                let path = &sockets[shard];
                let mut handshake =
                    transport::encode_load(shard as u32, arena, plan.rows_on(shard));
                if let Some(cache) = node_cache {
                    // The CACHE frame rides the same handshake bytes as the LOAD, so a
                    // router clone's re-dial re-arms the node cache exactly like it
                    // re-installs rows.
                    handshake.extend_from_slice(&transport::encode_cache_config(
                        shard as u32,
                        cache.capacity as u64,
                        cache.policy,
                    ));
                }
                let link = SocketLink::connect(
                    shard,
                    path,
                    dim,
                    Arc::new(handshake),
                    config.queue_capacity,
                    reply.clone(),
                    Some(counters.clone()),
                )
                .map_err(|_| ServeError::TransportClosed { shard })?;
                if let Some(chaos) = options
                    .chaos
                    .as_deref()
                    .filter(|plan| plan.spec().shard == shard)
                {
                    let (fault, param) = chaos.spec().kind.wire_code();
                    link.send_blocking(transport::encode_chaos(
                        shard as u32,
                        fault,
                        chaos.fire_after(),
                        param,
                    ))
                    .map_err(|_| ServeError::TransportClosed { shard })?;
                }
                let closer = {
                    let path = path.clone();
                    let shard = shard as u32;
                    Box::new(move || {
                        // A dedicated one-shot connection so shutdown works even after
                        // the router (and its links) is gone. A dead node is already
                        // shut down.
                        use std::io::Write as _;
                        if let Ok(mut stream) = std::os::unix::net::UnixStream::connect(&path) {
                            let _ = stream.write_all(&transport::encode_shutdown(shard));
                        }
                    })
                };
                (ShardLink::Socket(link), closer)
            }
        };
        links.push(link);
        closers.push(closer);
    }
    let client = ClusterClient {
        plan: Arc::new(plan),
        links,
        reply,
        dim,
        bus: RscBus::new(config.interconnect),
        counters: counters.clone(),
        pending_cost: Cost::ZERO,
        pending_breakdown: CostBreakdown::new(),
        next_tag: 0,
        poison_next: false,
        resilience: config
            .resilience
            .or_else(|| sockets.map(|_| ResilienceConfig::default())),
        clock: options.clock.unwrap_or_else(|| Arc::new(WallClock::new())),
        dead: vec![false; num_shards],
        timeout_strikes: vec![0; num_shards],
        missing: Vec::new(),
        trace: None,
        fault_window: vec![ShardFaultDelta::default(); num_shards],
        node_cache,
    };
    let handle = ClusterHandle {
        closers,
        workers,
        counters,
    };
    Ok((client, handle))
}

/// Room for one response per shard plus a retry, a hedge, and stragglers from a
/// failed fetch — shard workers never block on a full reply queue.
fn reply_capacity(num_shards: usize) -> usize {
    num_shards.max(1) * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::clock::ManualClock;
    use crate::engine::{ServeConfig, ServeEngine, ServePrecision};
    use crate::replay::{ReplayConfig, ReplayWorkload};
    use crate::runtime::{RuntimeConfig, ServeRuntime};
    use imars_fabric::cost::CostComponent;
    use imars_recsys::dlrm::{Dlrm, DlrmConfig};
    use imars_recsys::EmbeddingTable;
    use std::time::{Duration, Instant};

    const ITEM_DIM: usize = 4;
    const NUM_ITEMS: usize = 512;

    fn items() -> EmbeddingTable {
        EmbeddingTable::new(NUM_ITEMS, ITEM_DIM, 31).unwrap()
    }

    /// 64-bit FNV-1a of a rendered artifact: the byte-determinism tests pin these
    /// digests, so a refactor must leave the bytes themselves unchanged, not merely
    /// reproducible.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn arena_of(table: &EmbeddingTable) -> RowArena<f32> {
        RowArena::from_rows(table.iter_rows(), table.dim()).unwrap()
    }

    fn serve_config(cache_capacity: usize, precision: ServePrecision) -> ServeConfig {
        ServeConfig {
            shards: 4,
            cache_capacity,
            cache_policy: CachePolicy::Clock,
            cache_placement: crate::cache::CachePlacement::Router,
            shard_batching: false,
            precision,
            policy: BatchPolicy::new(16, 300.0).unwrap(),
            signature_bits: 64,
            search_radius: 27,
            lsh_seed: 7,
        }
    }

    fn replay_config(queries: usize) -> ReplayConfig {
        ReplayConfig {
            queries,
            num_users: 100,
            num_items: NUM_ITEMS,
            zipf_exponent: 1.2,
            history_len: 12,
            offered_qps: 200_000.0,
            candidates_per_query: 50,
            top_k: 10,
            sparse_cardinalities: DlrmConfig::tiny().sparse_cardinalities,
            seed: 123,
            item_permutation_seed: None,
        }
    }

    fn cluster_config(shards: usize, workers_per_shard: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            workers_per_shard,
            queue_capacity: 32,
            placement: Placement::Range,
            hot_replicas: 0,
            interconnect: InterconnectParams::default(),
            resilience: None,
        }
    }

    #[test]
    fn config_validation_rejects_zero_fields() {
        assert!(ClusterConfig::new(0, Placement::Range).is_err());
        let mut config = ClusterConfig::new(4, Placement::Range).unwrap();
        config.workers_per_shard = 0;
        assert!(config.validate().is_err());
        config.workers_per_shard = 1;
        config.queue_capacity = 0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn cluster_fetch_returns_the_exact_table_rows() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 4, Placement::Range, 0, None).unwrap();
        let (mut client, handle) = spawn_cluster(&arena, plan, &cluster_config(4, 2)).unwrap();
        let wanted: Vec<u32> = vec![0, 511, 17, 17, 300, 42, 128, 200];
        let mut out = vec![0.0f32; wanted.len() * ITEM_DIM];
        let work: Vec<(u32, &mut [f32])> = wanted
            .iter()
            .copied()
            .zip(out.chunks_mut(ITEM_DIM))
            .collect();
        client.fetch_rows(work).unwrap();
        for (&row, chunk) in wanted.iter().zip(out.chunks(ITEM_DIM)) {
            assert_eq!(chunk, table.lookup(row as usize).unwrap(), "row {row}");
        }
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.fetches, 1);
        assert_eq!(stats.shard_lookups.iter().sum::<u64>(), wanted.len() as u64);
        assert!(stats.subrequests >= 1);
    }

    /// The satellite's deterministic concurrency matrix: seeded traces through the
    /// cluster at 1/2/8 shards and 1/4 workers, fp32 and int8, cache on and off —
    /// every configuration bit-identical to the single-node engine.
    #[test]
    fn clustered_replay_is_bit_identical_to_single_node() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for cache_capacity in [0usize, 64] {
                let mut reference = ServeEngine::new(
                    Dlrm::new(DlrmConfig::tiny()).unwrap(),
                    &table,
                    serve_config(cache_capacity, precision),
                )
                .unwrap();
                let expected = reference.replay(&workload).unwrap();
                for shards in [1usize, 2, 8] {
                    for workers in [1usize, 4] {
                        let (mut engine, handle) = ServeEngine::new_clustered(
                            Dlrm::new(DlrmConfig::tiny()).unwrap(),
                            &table,
                            serve_config(cache_capacity, precision),
                            &cluster_config(shards, workers),
                            None,
                        )
                        .unwrap();
                        let outcome = engine.replay(&workload).unwrap();
                        assert_eq!(outcome.responses.len(), expected.responses.len());
                        for (a, b) in outcome.responses.iter().zip(&expected.responses) {
                            assert_eq!(a.id, b.id);
                            assert_eq!(
                                a.score.to_bits(),
                                b.score.to_bits(),
                                "query {} ({precision:?}, cache {cache_capacity}, {shards} shards x {workers} workers)",
                                a.id
                            );
                            assert_eq!(a.candidates, b.candidates);
                        }
                        // Cache behaviour is unchanged by clustering.
                        assert_eq!(outcome.report.cache, expected.report.cache);
                        let stats = handle.shutdown().unwrap();
                        assert!(stats.fetches > 0);
                        if shards == 1 {
                            assert_eq!(stats.cross_shard_hops, 0, "one shard has no hops");
                            assert_eq!(stats.cross_shard_bytes, 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_replay_charges_the_rsc_bus_for_cross_shard_hops() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let mut single = ServeEngine::new(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
        )
        .unwrap();
        let single_outcome = single.replay(&workload).unwrap();
        assert_eq!(
            single_outcome
                .report
                .telemetry
                .cost
                .component(CostComponent::RscTransfer),
            Cost::ZERO,
            "no bus charge in-process"
        );
        assert!(single_outcome.report.cluster.is_none());

        let (mut clustered, handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster_config(4, 1),
            None,
        )
        .unwrap();
        let outcome = clustered.replay(&workload).unwrap();
        let transfer = outcome
            .report
            .telemetry
            .cost
            .component(CostComponent::RscTransfer);
        assert!(transfer.energy_pj > 0.0, "cross-shard hops pay the bus");
        assert!(
            outcome.report.telemetry.total_cost.energy_pj
                > single_outcome.report.telemetry.total_cost.energy_pj
        );
        let stats = outcome.report.cluster.expect("cluster stats in the report");
        assert!(stats.cross_shard_hops > 0);
        assert!(stats.cross_shard_bytes > 0);
        assert_eq!(stats.shards, 4);
        // The snapshot agrees with the handle's.
        assert_eq!(handle.shutdown().unwrap(), stats);
    }

    /// Frequency-aware placement (from the trace histogram) must cut cross-shard bytes
    /// versus range placement on a permuted skew-1.2 catalogue, with identical outputs.
    #[test]
    fn frequency_placement_cuts_cross_shard_traffic_on_permuted_catalogues() {
        let table = items();
        let mut config = replay_config(2000);
        config.item_permutation_seed = Some(5);
        let workload = ReplayWorkload::generate(&config).unwrap();
        let histogram = workload.row_histogram(NUM_ITEMS).unwrap();
        let run = |placement: Placement, histogram: Option<&[u64]>| {
            let cluster = ClusterConfig {
                placement,
                hot_replicas: if placement == Placement::Frequency {
                    NUM_ITEMS / 4
                } else {
                    0
                },
                ..cluster_config(4, 1)
            };
            let (mut engine, handle) = ServeEngine::new_clustered(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, ServePrecision::Fp32),
                &cluster,
                histogram,
            )
            .unwrap();
            let outcome = engine.replay(&workload).unwrap();
            handle.shutdown().unwrap();
            outcome
        };
        let range = run(Placement::Range, None);
        let freq = run(Placement::Frequency, Some(&histogram));
        for (a, b) in range.responses.iter().zip(&freq.responses) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "placement must not change outputs"
            );
        }
        let range_stats = range.report.cluster.unwrap();
        let freq_stats = freq.report.cluster.unwrap();
        assert!(
            (freq_stats.cross_shard_bytes as f64) < range_stats.cross_shard_bytes as f64 * 0.8,
            "freq placement must measurably cut cross-shard bytes: {} vs {}",
            freq_stats.cross_shard_bytes,
            range_stats.cross_shard_bytes,
        );
        assert!(freq_stats.mean_fanout() <= range_stats.mean_fanout());
    }

    /// The deterministic-concurrency satellite: the threaded runtime over the cluster
    /// on a frozen manual clock. Size flushes drive the pipeline, a clock advance fires
    /// the deadline flush, and the drained outputs match the single-node replay bit for
    /// bit.
    #[test]
    fn threaded_cluster_on_manual_clock_matches_single_node() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(200)).unwrap();
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            let mut reference = ServeEngine::new(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, precision),
            )
            .unwrap();
            let expected = reference.replay(&workload).unwrap();
            for (shards, workers) in [(2usize, 1usize), (8, 4)] {
                let (engine, handle) = ServeEngine::new_clustered(
                    Dlrm::new(DlrmConfig::tiny()).unwrap(),
                    &table,
                    serve_config(64, precision),
                    &cluster_config(shards, workers),
                    None,
                )
                .unwrap();
                let clock = Arc::new(ManualClock::new());
                let runtime = ServeRuntime::start(
                    &engine,
                    RuntimeConfig::new(2, 1024).unwrap(),
                    clock.clone(),
                )
                .unwrap();
                for (i, request) in workload.requests().iter().enumerate() {
                    runtime.submit(request.clone()).unwrap();
                    if i == 100 {
                        // Fire a deadline flush mid-stream; the frozen clock otherwise
                        // only allows size flushes.
                        clock.advance_us(1_000_000.0);
                    }
                }
                let outcome = runtime.shutdown().unwrap();
                assert_eq!(outcome.responses.len(), 200);
                let mut by_id = outcome.responses.clone();
                by_id.sort_unstable_by_key(|response| response.id);
                for (a, b) in by_id.iter().zip(&expected.responses) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "query {} ({precision:?}, {shards} shards x {workers} workers, manual clock)",
                        a.id
                    );
                    assert_eq!(a.candidates, b.candidates);
                }
                let stats = outcome
                    .report
                    .cluster
                    .expect("cluster stats in threaded report");
                assert!(stats.fetches > 0);
                handle.shutdown().unwrap();
            }
        }
    }

    /// Per-shard-node caches are shared by every worker clone of a threaded runtime,
    /// so their counters must enter the report once, not once per worker. Two workers
    /// over node-cached shards, in-process and clustered: the report's hits are the
    /// node caches' own hits, and every lookup is accounted for exactly as in the
    /// simulated run.
    #[test]
    fn threaded_reports_count_shared_node_caches_once() {
        use crate::cache::CachePlacement;
        use crate::runtime::{replay_threaded, ThreadedReplayConfig};
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(600)).unwrap();
        let config = ServeConfig {
            cache_placement: CachePlacement::Shard,
            ..serve_config(64, ServePrecision::Fp32)
        };
        let model = || Dlrm::new(DlrmConfig::tiny()).unwrap();
        let simulated = ServeEngine::new(model(), &table, config.clone())
            .unwrap()
            .replay(&workload)
            .unwrap();
        let threaded = |engine: &ServeEngine| {
            let replay = ThreadedReplayConfig {
                runtime: RuntimeConfig::new(2, 1024).unwrap(),
                speedup: f64::INFINITY,
                shed_on_full: false,
            };
            replay_threaded(engine, &workload, &replay).unwrap()
        };

        // In-process shards: the caller's engine shares the node caches with the
        // workers and has no router-cache traffic of its own.
        let engine = ServeEngine::new(model(), &table, config.clone()).unwrap();
        let outcome = threaded(&engine);
        let node = engine.cache_stats();
        assert!(node.hits > 0, "the Zipf head hits the node caches");
        assert_eq!(outcome.report.cache.hits, node.hits);
        assert_eq!(outcome.report.cache.insertions, node.insertions);
        assert_eq!(
            outcome.report.cache.lookups(),
            simulated.report.cache.lookups()
        );

        let (engine, handle) =
            ServeEngine::new_clustered(model(), &table, config, &cluster_config(2, 1), None)
                .unwrap();
        let outcome = threaded(&engine);
        let stats = outcome.report.cluster.clone().expect("cluster stats");
        assert!(stats.shard_cache_hits.iter().sum::<u64>() > 0);
        assert_eq!(
            outcome.report.cache.hits,
            stats.shard_cache_hits.iter().sum::<u64>()
        );
        assert_eq!(
            outcome.report.cache.lookups(),
            simulated.report.cache.lookups()
        );
        handle.shutdown().unwrap();
    }

    /// `(Chrome-trace JSON, slow log)` digests of the manual-clock trace run below,
    /// per shard count (the artifacts carry no scores, so both precisions share them).
    fn trace_digests(shards: usize) -> (u64, u64) {
        match shards {
            1 => (0xfdd2_a3df_321c_624b, 0x4df3_0aaa_5a64_457d),
            2 => (0x2c14_6d29_8307_e6fa, 0xf19b_4750_02bf_8923),
            8 => (0x4d54_c7be_851e_2f5d, 0xc776_f043_a4ab_cd97),
            _ => unreachable!("no digest pinned for {shards} shards"),
        }
    }

    /// `(series JSON, exposition)` digests of the manual-clock metrics run below.
    fn metrics_digests(shards: usize) -> (u64, u64) {
        match shards {
            1 => (0xf0c4_86a6_811b_c56c, 0xf426_a752_9460_1194),
            2 => (0xd10f_4f6f_1495_0e2b, 0x0d7a_3083_0523_9c44),
            8 => (0x5b18_caa7_a7a4_2d81, 0xe327_8cfd_d6fa_d184),
            _ => unreachable!("no digest pinned for {shards} shards"),
        }
    }

    /// The trace-determinism satellite: on a frozen manual clock the rendered trace
    /// JSON and slow-query log are a pure function of `(seed, workload)` — repeated
    /// runs are byte-identical, and so are runs at different runtime worker counts,
    /// at every shard width and in both precisions, and their bytes match the digests
    /// pinned above. Cache off: per-worker cache state would make the batch-level hit
    /// counts scheduling-dependent.
    #[test]
    fn cluster_traces_are_byte_deterministic_on_a_manual_clock() {
        use crate::trace::TraceConfig;
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        let trace_config = TraceConfig {
            sample_every: 4,
            seed: 11,
            capacity: 4096,
            slow_k: 6,
        };
        let run = |precision: ServePrecision, shards: usize, workers: usize| {
            let (mut engine, handle) = ServeEngine::new_clustered(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(0, precision),
                &cluster_config(shards, 1),
                None,
            )
            .unwrap();
            engine.enable_tracing(trace_config);
            let clock = Arc::new(ManualClock::new());
            let runtime =
                ServeRuntime::start(&engine, RuntimeConfig::new(workers, 1024).unwrap(), clock)
                    .unwrap();
            for request in workload.requests() {
                runtime.submit(request.clone()).unwrap();
            }
            let outcome = runtime.shutdown().unwrap();
            handle.shutdown().unwrap();
            assert!(outcome.trace.sampled() > 0);
            (
                outcome.trace.to_chrome_json(),
                outcome.trace.render_slow_log(),
            )
        };
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for shards in [1usize, 2, 8] {
                let (json_a, slow_a) = run(precision, shards, 1);
                let (json_b, slow_b) = run(precision, shards, 1);
                assert_eq!(
                    json_a, json_b,
                    "repeat run must be byte-identical ({precision:?}, {shards} shards)"
                );
                assert_eq!(slow_a, slow_b);
                let (json_c, slow_c) = run(precision, shards, 4);
                assert_eq!(
                    json_a, json_c,
                    "worker count must not perturb traces ({precision:?}, {shards} shards)"
                );
                assert_eq!(slow_a, slow_c);
                assert_eq!(
                    (fnv1a(&json_a), fnv1a(&slow_a)),
                    trace_digests(shards),
                    "trace bytes changed ({precision:?}, {shards} shards)"
                );
            }
        }
    }

    /// The metrics-determinism satellite: on a frozen manual clock the scraped
    /// time-series JSON and the Prometheus exposition are a pure function of
    /// `(seed, workload)` — byte-identical across repeated runs and across 1/4
    /// runtime workers, at 1/2/8 shards and in both precisions, and equal to the
    /// pinned digests. Cache off, like the
    /// trace test: per-worker cache state would make per-batch hit deltas
    /// scheduling-dependent.
    #[test]
    fn metrics_series_and_exposition_are_byte_deterministic_on_a_manual_clock() {
        use crate::metrics::{exposition, MetricsConfig};
        use crate::trace::TraceConfig;
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        let trace_config = TraceConfig {
            sample_every: 4,
            seed: 11,
            capacity: 4096,
            slow_k: 6,
        };
        let run = |precision: ServePrecision, shards: usize, workers: usize| {
            let (mut engine, handle) = ServeEngine::new_clustered(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(0, precision),
                &cluster_config(shards, 1),
                None,
            )
            .unwrap();
            engine.enable_tracing(trace_config);
            engine.enable_metrics(MetricsConfig {
                interval_us: 1_000.0,
            });
            let clock = Arc::new(ManualClock::new());
            let runtime =
                ServeRuntime::start(&engine, RuntimeConfig::new(workers, 1024).unwrap(), clock)
                    .unwrap();
            for request in workload.requests() {
                runtime.submit(request.clone()).unwrap();
            }
            let outcome = runtime.shutdown().unwrap();
            handle.shutdown().unwrap();
            let series = outcome.report.metrics.clone().expect("metrics enabled");
            assert_eq!(
                series.windows.iter().map(|w| w.completions).sum::<u64>(),
                400,
                "every completion scraped exactly once"
            );
            (
                series.to_json(),
                exposition(&outcome.report, Some(&outcome.trace)),
            )
        };
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for shards in [1usize, 2, 8] {
                let (series_a, text_a) = run(precision, shards, 1);
                let (series_b, text_b) = run(precision, shards, 1);
                assert_eq!(
                    series_a, series_b,
                    "repeat run must be byte-identical ({precision:?}, {shards} shards)"
                );
                assert_eq!(text_a, text_b);
                let (series_c, text_c) = run(precision, shards, 4);
                assert_eq!(
                    series_a, series_c,
                    "worker count must not perturb the series ({precision:?}, {shards} shards)"
                );
                assert_eq!(text_a, text_c);
                assert_eq!(
                    (fnv1a(&series_a), fnv1a(&text_a)),
                    metrics_digests(shards),
                    "series or exposition bytes changed ({precision:?}, {shards} shards)"
                );
            }
        }
    }

    /// The chaos-visibility satellite: a mid-replay shard fault shows up in the
    /// scraped time series, while a healthy run's fault columns stay all-zero.
    /// A kill closes the shard's queue, so it surfaces on the dead-owner path as a
    /// per-window retry/promotion spike on the killed shard; a stall keeps the
    /// shard "up" but mute, so it additionally drives the deadline path and lands
    /// windowed timeouts on the stalled shard. The healthy and kill legs run their
    /// deadlines on a frozen manual clock — a kill is detected through the closed
    /// queue, not a deadline, and a healthy shard under parallel test load must not
    /// miss a wall-clock one. Only the stall leg needs wall time to expire.
    #[test]
    fn a_chaos_kill_spikes_the_per_window_fault_series() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let histogram = workload.row_histogram(NUM_ITEMS).unwrap();
        let mut cluster = cluster_config(4, 1);
        cluster.placement = Placement::Frequency;
        cluster.hot_replicas = 64;
        // A tight deadline so a stalled shard expires in test time, not in 2 s.
        cluster.resilience = Some(ResilienceConfig {
            request_timeout_us: 2_000.0,
            hedge_after_us: f64::INFINITY,
            max_retries: 2,
            backoff_us: 100.0,
        });
        let serve = |chaos: Option<Arc<ChaosPlan>>, clock: Option<Arc<dyn Clock>>| {
            let (mut engine, handle) = ServeEngine::new_clustered_with(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, ServePrecision::Fp32),
                &cluster,
                Some(&histogram),
                ClusterOptions {
                    chaos,
                    clock,
                    node_cache: None,
                },
            )
            .unwrap();
            engine.enable_metrics(workload.metrics_config(10));
            let outcome = engine.replay(&workload).unwrap();
            let _ = handle.shutdown(); // a killed worker is reported, not hung on
            outcome.report.metrics.expect("metrics enabled")
        };
        let frozen = || -> Option<Arc<dyn Clock>> { Some(Arc::new(ManualClock::new())) };
        let healthy = serve(None, frozen());
        assert!(
            healthy
                .fault_events()
                .iter()
                .all(|&(_, faults)| faults == 0),
            "healthy run: no fault events in any window"
        );
        let killed = serve(
            Some(Arc::new(ChaosPlan::parse("kill:1", 5).unwrap())),
            frozen(),
        );
        let retries_on_killed: u64 = killed
            .windows
            .iter()
            .map(|w| w.shard_retries.get(1).copied().unwrap_or(0))
            .sum();
        assert!(
            retries_on_killed > 0,
            "the kill must surface as windowed retries on shard 1"
        );
        let promotions: u64 = killed
            .windows
            .iter()
            .flat_map(|w| w.shard_promotions.iter())
            .sum();
        assert!(promotions > 0, "replicated rows promote in the series");
        assert!(
            killed.fault_events().iter().any(|&(_, faults)| faults > 0),
            "the spike is visible per window"
        );
        let stalled = serve(
            Some(Arc::new(ChaosPlan::parse("stall:1", 5).unwrap())),
            None,
        );
        let timeouts_on_stalled: u64 = stalled
            .windows
            .iter()
            .map(|w| w.shard_timeouts.get(1).copied().unwrap_or(0))
            .sum();
        assert!(
            timeouts_on_stalled > 0,
            "the stall must surface as windowed deadline timeouts on shard 1"
        );
    }

    /// Memory accounting for cluster loading: spawning an 8-shard cluster must not
    /// copy any rows — every shard storage is an `Arc` handle onto the caller's one
    /// arena allocation, and shutdown releases exactly those handles.
    #[test]
    fn cluster_loading_shares_one_arena_allocation_across_shards() {
        let table = items();
        let arena = arena_of(&table);
        assert_eq!(arena.handle_count(), 1);
        let resident = arena.resident_bytes();
        assert_eq!(resident, NUM_ITEMS * ITEM_DIM * std::mem::size_of::<f32>());
        let plan = ShardPlan::build(NUM_ITEMS, 8, Placement::Range, 0, None).unwrap();
        let (mut client, handle) = spawn_cluster(&arena, plan, &cluster_config(8, 2)).unwrap();
        // Loading 8 shards added 8 handles onto the same buffer — zero row copies,
        // zero extra resident bytes.
        assert_eq!(arena.handle_count(), 1 + 8);
        assert_eq!(arena.resident_bytes(), resident);
        // The shared storage actually serves.
        let mut out = vec![0.0f32; ITEM_DIM];
        let work: Vec<(u32, &mut [f32])> = vec![(300, &mut out)];
        client.fetch_rows(work).unwrap();
        assert_eq!(out, table.lookup(300).unwrap());
        handle.shutdown().unwrap();
        // Joining the nodes dropped their handles; the catalogue is ours alone again.
        assert_eq!(arena.handle_count(), 1);
    }

    #[test]
    fn a_panicking_shard_node_surfaces_shard_failed_instead_of_deadlocking() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 4, Placement::Range, 0, None).unwrap();
        let (mut client, handle) = spawn_cluster(&arena, plan, &cluster_config(4, 1)).unwrap();
        client.poison_next_fetch();
        let rows_wanted: Vec<u32> = vec![1, 200, 400];
        let mut out = vec![0.0f32; rows_wanted.len() * ITEM_DIM];
        let started = Instant::now();
        let work: Vec<(u32, &mut [f32])> = rows_wanted
            .iter()
            .copied()
            .zip(out.chunks_mut(ITEM_DIM))
            .collect();
        let error = client
            .fetch_rows(work)
            .expect_err("poisoned fetch must fail");
        assert!(matches!(error, ServeError::ShardFailed { .. }), "{error}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure must not deadlock"
        );
        // The failed node's queue is closed: routing to it again fails fast, every
        // time — repeated retries must neither hang nor wedge the healthy shards.
        for _ in 0..5 {
            let mut out2 = vec![0.0f32; ITEM_DIM];
            let work2: Vec<(u32, &mut [f32])> = vec![(1, &mut out2)];
            assert!(client.fetch_rows(work2).is_err());
        }
        // Shard 2 was never poisoned (the fetch touched 0, 1 and 3): an independent
        // router can still serve rows that live there.
        let mut survivor = client.clone();
        let mut out3 = vec![0.0f32; ITEM_DIM];
        let work3: Vec<(u32, &mut [f32])> = vec![(300, &mut out3)];
        survivor.fetch_rows(work3).unwrap();
        assert_eq!(out3, table.lookup(300).unwrap());
        // Shutdown reports the panic instead of hanging.
        let error = handle.shutdown().expect_err("shutdown surfaces the panic");
        assert!(matches!(error, ServeError::ShardFailed { .. }));
    }

    #[test]
    fn poisoned_requests_through_the_engine_error_the_replay() {
        let table = items();
        let (mut engine, handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster_config(2, 1),
            None,
        )
        .unwrap();
        // An out-of-catalogue row is rejected by the router's validation, shards stay up.
        let mut workload = replay_config(10);
        workload.num_items = NUM_ITEMS * 2;
        let bad = ReplayWorkload::generate(&workload).unwrap();
        assert!(matches!(
            engine.replay(&bad),
            Err(ServeError::RowOutOfRange { .. })
        ));
        // The cluster is still healthy afterwards.
        let good = ReplayWorkload::generate(&replay_config(10)).unwrap();
        assert_eq!(engine.replay(&good).unwrap().responses.len(), 10);
        handle.shutdown().unwrap();
    }

    #[test]
    fn shard_queue_overflow_counts_rejections_then_blocks() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 1, Placement::Range, 0, None).unwrap();
        let config = ClusterConfig {
            queue_capacity: 1,
            ..cluster_config(1, 1)
        };
        // No workers: build the storage-less routing pieces by hand so the overflow is
        // deterministic (the queue is pre-filled and nothing drains it until we do).
        let counters = Arc::new(ClusterCounters::new(1, &config, Placement::Range, 0));
        let input: Arc<BoundedQueue<SubRequest<f32>>> = Arc::new(BoundedQueue::new(1));
        let client = ClusterClient {
            plan: Arc::new(plan),
            links: vec![ShardLink::Queue(input.clone())],
            reply: Arc::new(BoundedQueue::new(2)),
            dim: ITEM_DIM,
            bus: RscBus::new(config.interconnect),
            counters: counters.clone(),
            pending_cost: Cost::ZERO,
            pending_breakdown: CostBreakdown::new(),
            next_tag: 0,
            poison_next: false,
            resilience: None,
            clock: Arc::new(WallClock::new()),
            dead: vec![false],
            timeout_strikes: vec![0],
            missing: Vec::new(),
            trace: None,
            fault_window: vec![ShardFaultDelta::default()],
            node_cache: None,
        };
        // Fill the queue so the next push must overflow.
        input
            .try_push(SubRequest {
                tag: 999,
                rows: vec![],
                reply: client.reply.clone(),
                poison: false,
                trace: None,
            })
            .unwrap();
        let storage = Arc::new(ShardStorage::build(&arena, &[0, 1, 2]));
        let fetcher = std::thread::spawn({
            let mut client = client.clone();
            move || {
                let mut out = vec![0.0f32; ITEM_DIM];
                let work: Vec<(u32, &mut [f32])> = vec![(2, &mut out)];
                client.fetch_rows(work).map(|()| out)
            }
        });
        // Wait for the deterministic rejection, then play the worker by hand.
        let waited = Instant::now();
        while counters.rejections[0].load(Ordering::Relaxed) == 0 {
            assert!(
                waited.elapsed() < Duration::from_secs(5),
                "rejection never counted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let _dummy = input.pop(); // frees the slot; the blocked push lands
        let request = match input.pop() {
            Pop::Item(request) => request,
            other => panic!("expected the real sub-request, got {other:?}"),
        };
        let mut data = Vec::new();
        for &row in &request.rows {
            data.extend_from_slice(storage.row(row));
        }
        request
            .reply
            .push(SubResponse {
                tag: request.tag,
                shard: 0,
                data,
                node_span: None,
            })
            .unwrap();
        let out = fetcher.join().unwrap().unwrap();
        assert_eq!(out, table.lookup(2).unwrap());
        assert_eq!(counters.rejections[0].load(Ordering::Relaxed), 1);
        let stats = counters.snapshot();
        assert_eq!(stats.total_rejections(), 1);
    }

    #[test]
    fn clones_share_the_cluster_but_not_reply_queues() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 2, Placement::Range, 0, None).unwrap();
        let (client, handle) = spawn_cluster(&arena, plan, &cluster_config(2, 1)).unwrap();
        let mut clones: Vec<ClusterClient<f32>> = (0..4).map(|_| client.clone()).collect();
        std::thread::scope(|scope| {
            for (i, clone) in clones.iter_mut().enumerate() {
                let table = &table;
                scope.spawn(move || {
                    for round in 0..50u32 {
                        let row = (i as u32 * 97 + round * 13) % NUM_ITEMS as u32;
                        let mut out = vec![0.0f32; ITEM_DIM];
                        let work: Vec<(u32, &mut [f32])> = vec![(row, &mut out)];
                        clone.fetch_rows(work).unwrap();
                        assert_eq!(out, table.lookup(row as usize).unwrap());
                    }
                });
            }
        });
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.shard_lookups.iter().sum::<u64>(), 4 * 50);
        assert_eq!(stats.fetches, 4 * 50);
    }

    /// The hedging satellite: a stalled shard never answers, the injected manual clock
    /// crosses `hedge_after_us`, and the hedge lands on a replica-holding shard — the
    /// fetched bytes are identical to the table's, in both served precisions.
    #[test]
    fn hedged_reads_win_on_replicas_bit_identically() {
        let table = items();
        let fp32: Vec<Vec<f32>> = table.iter_rows().map(<[f32]>::to_vec).collect();
        assert_hedged_fetch(&fp32);
        let quantized = imars_recsys::quantization::QuantizedTable::from_table(&table);
        let int8: Vec<Vec<i8>> = (0..quantized.rows())
            .map(|row| quantized.row(row).unwrap().to_vec())
            .collect();
        assert_hedged_fetch(&int8);
    }

    fn assert_hedged_fetch<T: Lane + PartialEq + std::fmt::Debug>(source: &[Vec<T>]) {
        let arena = RowArena::from_rows(source.iter().map(Vec::as_slice), ITEM_DIM).unwrap();
        // Row r has frequency NUM_ITEMS - r, so the replicated half is rows 0..256.
        let histogram: Vec<u64> = (1..=NUM_ITEMS as u64).rev().collect();
        let plan = ShardPlan::build(
            NUM_ITEMS,
            2,
            Placement::Frequency,
            NUM_ITEMS / 2,
            Some(&histogram),
        )
        .unwrap();
        let wanted: Vec<u32> = (0..NUM_ITEMS as u32)
            .filter(|&row| plan.is_replicated(row))
            .collect();
        assert_eq!(wanted.len(), NUM_ITEMS / 2);
        let expected: Vec<T> = wanted
            .iter()
            .flat_map(|&row| source[row as usize].iter().copied())
            .collect();
        let mut config = cluster_config(2, 1);
        config.resilience = Some(ResilienceConfig {
            request_timeout_us: 1e12, // only the hedge may rescue the fetch
            hedge_after_us: 100.0,
            max_retries: 0,
            backoff_us: 0.0,
        });
        let clock = Arc::new(ManualClock::new());
        let options = ClusterOptions {
            chaos: Some(Arc::new(ChaosPlan::parse("stall:0", 0).unwrap())),
            clock: Some(clock.clone()),
            node_cache: None,
        };
        let (mut client, handle) = spawn_cluster_with(&arena, plan, &config, options).unwrap();
        let fetcher = std::thread::spawn(move || {
            let mut out = vec![T::default(); wanted.len() * ITEM_DIM];
            let work: Vec<(u32, &mut [T])> = wanted
                .iter()
                .copied()
                .zip(out.chunks_mut(ITEM_DIM))
                .collect();
            client.fetch_rows(work).unwrap();
            assert!(client.take_missing_rows().is_empty(), "nothing degrades");
            out
        });
        // The stalled shard holds its sub-request forever; only crossing the hedge
        // deadline lets the fetch finish.
        while !fetcher.is_finished() {
            clock.advance_us(250.0);
            std::thread::sleep(Duration::from_millis(1));
        }
        let out = fetcher.join().unwrap();
        assert_eq!(out, expected, "hedged rows must be byte-identical");
        let stats = handle.shutdown().unwrap();
        assert!(stats.hedges >= 1, "a hedge fired: {stats:?}");
        assert!(stats.hedge_wins >= 1, "the hedge won: {stats:?}");
        assert_eq!(stats.missing_rows, 0);
        assert_eq!(stats.promotions, 0, "a hedge is not a promotion");
    }

    /// The chaos tentpole pinned down: kill a shard mid-replay and the replay still
    /// completes with every query answered. Queries that never touch the dead shard's
    /// rows stay bit-identical to the healthy run, replicated hot rows are promoted,
    /// the rest degrade to zero-filled lookups — and the telemetry accounts for it
    /// reproducibly: a second identical chaos run yields the same scores and counters.
    #[test]
    fn a_killed_shard_degrades_gracefully_and_deterministically() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let histogram = workload.row_histogram(NUM_ITEMS).unwrap();
        let mut cluster = cluster_config(4, 1);
        cluster.placement = Placement::Frequency;
        cluster.hot_replicas = 64;
        cluster.resilience = Some(ResilienceConfig::default());
        let serve = |chaos: Option<Arc<ChaosPlan>>| {
            let options = ClusterOptions {
                chaos,
                clock: None,
                node_cache: None,
            };
            let (mut engine, handle) = ServeEngine::new_clustered_with(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, ServePrecision::Fp32),
                &cluster,
                Some(&histogram),
                options,
            )
            .unwrap();
            // Trace every query so the kill's timeout -> retry -> promotion sequence
            // lands in a retained trace at a pinned position.
            engine.enable_tracing(crate::trace::TraceConfig {
                sample_every: 1,
                seed: 0,
                capacity: 4096,
                slow_k: 8,
            });
            let outcome = engine.replay(&workload).unwrap();
            (outcome, handle.shutdown())
        };
        let (healthy, clean) = serve(None);
        clean.unwrap();
        assert_eq!(healthy.report.telemetry.degraded_queries, 0);
        let (degraded, shutdown) = serve(Some(Arc::new(ChaosPlan::parse("kill:1", 5).unwrap())));
        // The worker died by design; the handle reports it and nothing hangs.
        assert!(matches!(
            shutdown,
            Err(ServeError::ShardFailed { shard: 1 })
        ));
        // Zero lost queries.
        assert_eq!(degraded.responses.len(), healthy.responses.len());
        // Promotion serves the dead shard's *replicated* rows byte-identically, so only
        // its non-replicated rows can perturb a result: queries whose history avoids
        // those must be bit-identical to the healthy run.
        let plan =
            ShardPlan::build(NUM_ITEMS, 4, Placement::Frequency, 64, Some(&histogram)).unwrap();
        let doomed: std::collections::HashSet<u32> = plan
            .rows_on(1)
            .iter()
            .copied()
            .filter(|&row| !plan.is_replicated(row))
            .collect();
        let mut untouched = 0usize;
        for ((request, with_fault), healthy) in workload
            .requests()
            .iter()
            .zip(&degraded.responses)
            .zip(&healthy.responses)
        {
            assert_eq!(request.id, with_fault.id);
            assert_eq!(with_fault.id, healthy.id);
            if request.history.iter().all(|row| !doomed.contains(row)) {
                assert_eq!(
                    with_fault.score.to_bits(),
                    healthy.score.to_bits(),
                    "query {} never touched the dead shard",
                    request.id
                );
                untouched += 1;
            }
        }
        assert!(
            untouched > 0,
            "the workload must exercise untouched queries"
        );
        // Every degraded lookup is accounted, in the cluster counters and the serving
        // telemetry alike.
        let stats = degraded.report.cluster.as_ref().unwrap();
        let telemetry = &degraded.report.telemetry;
        assert!(stats.missing_rows > 0, "some cold rows degrade: {stats:?}");
        assert!(stats.promotions > 0, "hot rows promote: {stats:?}");
        assert_eq!(
            telemetry.missing_row_lookups, stats.missing_rows,
            "every zero-filled row is accounted"
        );
        let exposed = workload
            .requests()
            .iter()
            .filter(|request| request.history.iter().any(|row| doomed.contains(row)))
            .count() as u64;
        assert!(telemetry.degraded_queries > 0);
        assert!(telemetry.degraded_queries <= exposed);
        // The fault is visible end to end: some trace of the chaos run carries the
        // killed shard's timeout, then the retry decision, then the promotion, in
        // that order. Healthy traces carry no fault events at all.
        use crate::trace::{FetchEventKind, QueryTrace};
        assert!(
            healthy
                .trace
                .traces()
                .iter()
                .all(|trace| trace.events.is_empty()),
            "healthy traces must carry no fault events"
        );
        assert_eq!(degraded.trace.sampled(), 300, "every query is traced");
        let kill_sequence = |trace: &QueryTrace| -> bool {
            let Some(t) = trace
                .events
                .iter()
                .position(|e| e.kind == FetchEventKind::Timeout && e.shard == 1)
            else {
                return false;
            };
            let Some(r) = trace.events[t..]
                .iter()
                .position(|e| e.kind == FetchEventKind::Retry)
            else {
                return false;
            };
            trace.events[t + r..]
                .iter()
                .any(|e| e.kind == FetchEventKind::Promotion)
        };
        assert!(
            degraded.trace.traces().iter().any(kill_sequence),
            "a chaos trace must show timeout -> retry -> promotion for shard 1"
        );
        // Determinism: the same plan reproduces the same degradation, bit for bit.
        let (again, _shutdown) = serve(Some(Arc::new(ChaosPlan::parse("kill:1", 5).unwrap())));
        assert_eq!(
            again.report.telemetry.degraded_queries,
            telemetry.degraded_queries
        );
        assert_eq!(
            again.report.cluster.as_ref().unwrap().missing_rows,
            stats.missing_rows
        );
        for (a, b) in again.responses.iter().zip(&degraded.responses) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {}", a.id);
        }
        // The fault events themselves are pinned: per-trace (kind, shard) sequences
        // are identical across the two chaos runs (timestamps differ — wall clock).
        let sequences =
            |outcome: &crate::engine::ReplayOutcome| -> Vec<(u64, Vec<(FetchEventKind, u32)>)> {
                outcome
                    .trace
                    .traces()
                    .iter()
                    .map(|trace| {
                        (
                            trace.id,
                            trace.events.iter().map(|e| (e.kind, e.shard)).collect(),
                        )
                    })
                    .collect()
            };
        assert_eq!(
            sequences(&again),
            sequences(&degraded),
            "chaos fault-event sequences must be position-pinned across runs"
        );
    }

    /// Fault-free, the socket transport is bit-identical to the in-process cluster:
    /// the same replay through real shard nodes on Unix sockets produces exactly the
    /// bytes the in-thread oracle does.
    #[test]
    fn uds_cluster_replay_matches_in_process_bit_for_bit() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(200)).unwrap();
        // Socket links run `ResilienceConfig::default()` when none is set; the
        // in-process oracle gets the same policy explicitly.
        let mut cluster = cluster_config(2, 1);
        cluster.resilience = Some(ResilienceConfig::default());
        let trace_config = crate::trace::TraceConfig {
            sample_every: 4,
            seed: 11,
            capacity: 4096,
            slow_k: 6,
        };
        let (mut oracle, oracle_handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster,
            None,
        )
        .unwrap();
        oracle.enable_tracing(trace_config);
        let expected = oracle.replay(&workload).unwrap();
        oracle_handle.shutdown().unwrap();
        let sockets: Vec<PathBuf> = (0..cluster.shards)
            .map(|shard| transport::socket_path("cluster-replay-test", shard))
            .collect();
        let nodes: Vec<_> = sockets
            .iter()
            .cloned()
            .map(|path| std::thread::spawn(move || transport::run_shard_node(&path)))
            .collect();
        for path in &sockets {
            let started = Instant::now();
            while std::os::unix::net::UnixStream::connect(path).is_err() {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "shard node never came up on {path:?}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let (mut engine, handle) = ServeEngine::new_clustered_sockets(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster,
            None,
            &sockets,
            ClusterOptions::default(),
        )
        .unwrap();
        engine.enable_tracing(trace_config);
        let outcome = engine.replay(&workload).unwrap();
        assert_eq!(outcome.responses.len(), expected.responses.len());
        for (uds, inproc) in outcome.responses.iter().zip(&expected.responses) {
            assert_eq!(uds.id, inproc.id);
            assert_eq!(
                uds.score.to_bits(),
                inproc.score.to_bits(),
                "query {} over uds",
                uds.id
            );
            assert_eq!(uds.candidates, inproc.candidates);
        }
        assert_eq!(outcome.report.cache, expected.report.cache);
        assert_eq!(outcome.report.telemetry.degraded_queries, 0);
        // Trace-context propagation: fault-free UDS traces are structurally identical
        // to the in-process oracle — same sampled set, same routing, no fault events —
        // and every completed sub-request carries the shard node's own server-side
        // span shipped back over the wire (not reconstructed at the router).
        assert!(outcome.trace.sampled() > 0);
        assert_eq!(outcome.trace.sampled(), expected.trace.sampled());
        for (uds, inproc) in outcome.trace.traces().iter().zip(expected.trace.traces()) {
            assert_eq!(uds.id, inproc.id);
            assert!(uds.events.is_empty(), "fault-free: no events over uds");
            assert!(inproc.events.is_empty());
            assert_eq!(uds.fetch.len(), inproc.fetch.len(), "query {}", uds.id);
            for (f_uds, f_inproc) in uds.fetch.iter().zip(&inproc.fetch) {
                assert_eq!(f_uds.shard, f_inproc.shard, "query {}", uds.id);
                assert_eq!(f_uds.tag, f_inproc.tag);
                assert_eq!(f_uds.hedge, f_inproc.hedge);
                assert_eq!(f_uds.completed, f_inproc.completed);
                let node = f_uds
                    .node
                    .expect("uds replies on traced fetches carry a node span");
                assert!(node.queue_wait_us >= 0.0 && node.queue_wait_us.is_finite());
                assert!(node.cache_probe_us >= 0.0 && node.cache_probe_us.is_finite());
                assert!(node.storage_read_us >= 0.0 && node.storage_read_us.is_finite());
                assert!(
                    f_inproc.node.is_some(),
                    "the in-process oracle measures node spans too"
                );
            }
        }
        drop(engine); // hang the links up before the nodes are told to exit
        handle.shutdown().unwrap();
        for node in nodes {
            node.join().unwrap().unwrap();
        }
    }

    /// Per-shard-node caches on the cluster: in-process workers and out-of-process
    /// UDS shard nodes both serve repeated rows from their node cache, produce
    /// bit-identical responses to the router-cached single-node oracle, and surface
    /// per-shard hit/miss counters through [`ClusterStats`].
    #[test]
    fn node_cached_cluster_replay_is_bit_identical_in_process_and_over_uds() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let cluster = cluster_config(2, 1);
        let mut oracle = ServeEngine::new(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
        )
        .unwrap();
        let expected = oracle.replay(&workload).unwrap();

        let node_cached = ServeConfig {
            cache_placement: crate::cache::CachePlacement::Shard,
            ..serve_config(64, ServePrecision::Fp32)
        };
        let check = |outcome: &crate::engine::ReplayOutcome, label: &str| {
            assert_eq!(outcome.responses.len(), expected.responses.len(), "{label}");
            for (a, b) in outcome.responses.iter().zip(&expected.responses) {
                assert_eq!(a.id, b.id, "{label}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "query {} {label}",
                    a.id
                );
                assert_eq!(a.candidates, b.candidates, "{label}");
            }
            // Same lookup stream, now absorbed at the shards.
            assert_eq!(
                outcome.report.cache.lookups(),
                expected.report.cache.lookups(),
                "{label}"
            );
            assert!(outcome.report.cache.hits > 0, "{label}");
            let stats = outcome.report.cluster.as_ref().expect("cluster stats");
            assert!(stats.node_cached(), "{label}");
            assert_eq!(stats.shard_cache_hits.len(), 2, "{label}");
            assert_eq!(
                stats.shard_cache_hits.iter().sum::<u64>(),
                outcome.report.cache.hits,
                "{label}: the report's hits are the per-shard node-cache hits"
            );
        };

        let (mut inproc, inproc_handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            node_cached.clone(),
            &cluster,
            None,
        )
        .unwrap();
        let inproc_outcome = inproc.replay(&workload).unwrap();
        check(&inproc_outcome, "(in-process)");
        inproc_handle.shutdown().unwrap();

        let sockets: Vec<PathBuf> = (0..cluster.shards)
            .map(|shard| transport::socket_path("node-cache-test", shard))
            .collect();
        let nodes: Vec<_> = sockets
            .iter()
            .cloned()
            .map(|path| std::thread::spawn(move || transport::run_shard_node(&path)))
            .collect();
        for path in &sockets {
            let started = Instant::now();
            while std::os::unix::net::UnixStream::connect(path).is_err() {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "shard node never came up on {path:?}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let (mut uds, uds_handle) = ServeEngine::new_clustered_sockets(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            node_cached,
            &cluster,
            None,
            &sockets,
            ClusterOptions::default(),
        )
        .unwrap();
        let uds_outcome = uds.replay(&workload).unwrap();
        check(&uds_outcome, "(over uds)");
        // The UDS nodes' caches see the exact same fetch stream as the in-process
        // workers', so the per-shard counters agree exactly.
        assert_eq!(
            uds_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_hits,
            inproc_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_hits
        );
        assert_eq!(
            uds_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_misses,
            inproc_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_misses
        );
        drop(uds);
        uds_handle.shutdown().unwrap();
        for node in nodes {
            node.join().unwrap().unwrap();
        }
    }
}
