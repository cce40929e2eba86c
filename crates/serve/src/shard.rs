//! Range-partitioned embedding shards.
//!
//! A production catalogue does not live in one flat table: rows are partitioned across
//! shards (here: contiguous row ranges, the layout RecFlash-style frequency placement
//! assumes, since Zipf rank order is row order in the synthetic catalogues). The shard
//! layer owns the row storage, routes a row id to its shard, and fans a batch of missed
//! row fetches out across one scoped worker thread per shard — the software analogue of
//! independent CMA banks serving disjoint row ranges in parallel.
//!
//! Storage is generic over the row element: `f32` shards mirror an
//! `EmbeddingTable`, `i8` shards mirror the
//! packed int8 rows of
//! [`PackedTable`](imars_fabric::cma::PackedTable) /
//! `QuantizedTable`. Pooling uses the same
//! accumulation semantics as those sources (plain f32 adds, lane-wise saturating int8
//! adds), so shard-served results are bit-identical to the unsharded reference.

use std::sync::{Arc, Mutex};

use imars_fabric::cost::{Cost, CostBreakdown};
use imars_recsys::arena::RowArena;
use imars_recsys::batch::{par_runs, worker_count, PoolingBatch};
use imars_recsys::embedding::EmbeddingTable;
use imars_recsys::quantization::QuantizedTable;

use crate::cache::{CachePolicy, CacheStats, HotRowCache};
use crate::cluster::ClusterCounters;
use crate::error::ServeError;

/// A row element that can be pool-accumulated. `f32` uses plain addition (the
/// [`EmbeddingTable`] semantics); `i8` uses saturating addition (the GPCiM accumulator
/// semantics shared with [`imars_fabric::cma::saturating_add_packed_i8`]).
pub trait Lane: Copy + Default + Send + Sync + 'static {
    /// Bytes one element occupies on the wire (little-endian), used by the socket
    /// transport's length-prefixed frames.
    const WIRE_BYTES: usize;

    /// Accumulate `value` into `acc`.
    fn accumulate(acc: &mut Self, value: Self);

    /// Accumulate a whole row into `acc`, element by element in index order. The
    /// default is the scalar zip over [`Lane::accumulate`]; `f32` and `i8` override it
    /// with the runtime-dispatched SIMD kernels, which are pinned bit-identical to this
    /// scalar loop.
    #[inline]
    fn accumulate_slice(acc: &mut [Self], src: &[Self]) {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            Self::accumulate(a, s);
        }
    }

    /// Append the little-endian wire encoding of `self` to `out`.
    fn to_wire(self, out: &mut Vec<u8>);

    /// Decode one element from its wire bytes (`WIRE_BYTES` long).
    fn from_wire(bytes: &[u8]) -> Self;
}

impl Lane for f32 {
    const WIRE_BYTES: usize = 4;

    #[inline]
    fn accumulate(acc: &mut Self, value: Self) {
        *acc += value;
    }

    #[inline]
    fn accumulate_slice(acc: &mut [Self], src: &[Self]) {
        imars_recsys::simd::add_assign_f32(acc, src);
    }

    #[inline]
    fn to_wire(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Self {
        f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

impl Lane for i8 {
    const WIRE_BYTES: usize = 1;

    #[inline]
    fn accumulate(acc: &mut Self, value: Self) {
        *acc = acc.saturating_add(value);
    }

    #[inline]
    fn accumulate_slice(acc: &mut [Self], src: &[Self]) {
        imars_fabric::simd::saturating_add_assign_i8(acc, src);
    }

    #[inline]
    fn to_wire(self, out: &mut Vec<u8>) {
        out.push(self as u8);
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Self {
        bytes[0] as i8
    }
}

/// The engine's abstraction over a row store. The in-process [`ShardedTable`] and the
/// multi-node [`ClusterClient`](crate::cluster::ClusterClient) both implement it, so
/// the cache/pooling layer above is byte-for-byte the same code on both paths — which
/// is what makes the single-node and clustered outputs bit-identical. The in-process
/// table is the degenerate cluster: every cluster-only query has a default that says
/// "no cluster" (no interconnect cost, no counters, no faults).
pub(crate) trait RowSource<T: Lane> {
    /// Elements per row.
    fn dim(&self) -> usize;

    /// Number of shards the rows are partitioned across.
    fn num_shards(&self) -> usize;

    /// The home shard of one request's history (shard-aware batching): the shard
    /// owning most of its rows, ties toward the lower shard id.
    fn home_shard(&self, history: &[u32]) -> usize;

    /// Validate that every index addresses a valid row.
    fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError>;

    /// Copy the requested rows into the paired output chunks. Indices must be
    /// pre-validated; chunks are `dim` wide.
    fn fetch_rows(&mut self, work: Vec<(u32, &mut [T])>) -> Result<(), ServeError>;

    /// Sum-pool a CSR batch straight off the store (the cache-disabled path),
    /// accumulating each request in index order.
    fn pool_direct(&mut self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError>;

    /// Take the row ids the last fetches could not serve (their owner was dead and
    /// they had no replica; the chunks were zero-filled). Empty for sources that
    /// cannot degrade — only the fault-tolerant cluster client ever reports rows
    /// here. The caller owns the list; the source's record is cleared.
    fn take_missing(&mut self) -> Vec<u32> {
        Vec::new()
    }

    /// Arm per-fetch tracing: until [`RowSource::trace_drain`] is called, the source
    /// records dispatch/reply/timeout/retry/hedge/promotion events stamped on `clock`.
    /// Default is a no-op — only the cluster client has sub-request structure worth
    /// tracing; the in-process [`ShardedTable`] fetch is a single flat copy.
    fn trace_arm(&mut self, _clock: &Arc<dyn crate::clock::Clock>) {}

    /// Take the fetch events recorded since [`RowSource::trace_arm`], disarming
    /// tracing. Empty for sources that do not record events.
    fn trace_drain(&mut self) -> Vec<crate::trace::FetchEvent> {
        Vec::new()
    }

    /// Take the shard-node server spans that arrived with replies since
    /// [`RowSource::trace_arm`]. Empty for sources without shard nodes. Call this
    /// *before* [`RowSource::trace_drain`], which disarms the sink.
    fn trace_drain_node_spans(&mut self) -> Vec<crate::trace::NodeSpanRecord> {
        Vec::new()
    }

    /// Drain the per-shard fault-counter deltas (timeouts / retries / promotions)
    /// accumulated since the last drain, for the metrics plane's per-window
    /// attribution. Empty for sources that cannot fault. Unlike the shared
    /// cluster counters, this is clone-local state: draining it per batch is
    /// deterministic regardless of what other worker clones are doing.
    fn take_fault_deltas(&mut self) -> Vec<crate::metrics::ShardFaultDelta> {
        Vec::new()
    }

    /// Whether this source serves fetches through per-shard-node caches (the
    /// [`CachePlacement::Shard`](crate::cache::CachePlacement::Shard) layout). When
    /// true, [`RowSource::fetch_rows`] absorbs repeated rows at the node and the
    /// router-side pooling path skips its own cache probes.
    fn node_cached(&self) -> bool {
        false
    }

    /// The per-shard-node cache counters summed across shards (all zero without node
    /// caches).
    fn node_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Zero the source's serving counters (resident cache rows are kept).
    fn reset_stats(&mut self) {}

    /// Drain the interconnect cost accumulated since the last call (zero when no row
    /// crosses a bus).
    fn take_interconnect(&mut self) -> (Cost, CostBreakdown) {
        (Cost::ZERO, CostBreakdown::new())
    }

    /// The shared cluster counters (`None` for an in-process source).
    fn cluster_counters(&self) -> Option<Arc<ClusterCounters>> {
        None
    }

    /// Bytes of item-row storage resident in this process (`None` when the rows
    /// live on shard nodes elsewhere).
    fn catalogue_resident_bytes(&self) -> Option<usize> {
        None
    }
}

/// Accumulate request-order sums from a staged flat-lookup buffer: request `i` pools
/// `staging[offsets[i]..offsets[i+1]]` rows with [`Lane::accumulate`], fanned across
/// worker threads. Shared by the cached pooling path and the cluster's direct path —
/// the accumulation order (flat request order) is the bit-exactness contract.
pub(crate) fn pool_from_staging<T: Lane>(
    staging: &[T],
    dim: usize,
    offsets: &[usize],
    out: &mut [T],
) {
    let mut slots: Vec<&mut [T]> = out.chunks_mut(dim).collect();
    par_runs(&mut slots, |first, run| {
        for (i, slot) in run.iter_mut().enumerate() {
            slot.fill(T::default());
            for position in offsets[first + i]..offsets[first + i + 1] {
                T::accumulate_slice(slot, &staging[position * dim..(position + 1) * dim]);
            }
        }
    });
}

/// An embedding table split into contiguous row-range shards, optionally fronted by
/// one hot-row cache per shard (the in-process model of per-shard-node caching: each
/// shard serves repeated fetches from its own cache instead of its row storage).
///
/// Shards do **not** own row copies: every shard is an offset range into one shared
/// [`RowArena`] allocation per dtype, so sharding a million-row table costs no row
/// memory beyond the arena itself (the old per-shard `Vec<T>` layout cost ~2× while
/// loading). Clones of this table alias the same arena.
#[derive(Debug, Clone)]
pub struct ShardedTable<T> {
    rows_per_shard: usize,
    num_shards: usize,
    /// The shared row storage; shard `s` views global rows
    /// `s * rows_per_shard .. min((s + 1) * rows_per_shard, rows)`.
    arena: RowArena<T>,
    /// One cache per shard when node caching is installed (shared across engine
    /// clones, like a shard node's cache is shared across its workers). Locked per
    /// row fetch; each shard's fetches are served by one thread per batch, so the
    /// per-shard access sequence — and therefore every counter — is deterministic on
    /// the simulated replay path.
    node_caches: Option<Arc<Vec<Mutex<HotRowCache<T>>>>>,
}

impl<T: Lane> ShardedTable<T> {
    /// Build a sharded table from rows in index order, split into at most `shards`
    /// contiguous ranges. Fewer shards are created when there are fewer rows than
    /// requested shards. The rows are copied once into a fresh arena; loading an
    /// existing table should prefer the zero-copy [`ShardedTable::from_arena`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `dim` or `shards` is zero, or
    /// [`ServeError::ShapeMismatch`] if any row is not `dim` long.
    pub fn from_rows<'a, I>(rows: I, dim: usize, shards: usize) -> Result<Self, ServeError>
    where
        I: IntoIterator<Item = &'a [T]>,
        T: 'a,
    {
        if dim == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "sharded table needs nonzero dim and shard count, got dim={dim} shards={shards}"
                ),
            });
        }
        let arena = RowArena::from_rows(rows, dim).map_err(|error| match error {
            imars_recsys::RecsysError::ShapeMismatch {
                expected, actual, ..
            } => ServeError::ShapeMismatch {
                what: "sharded table row",
                expected,
                actual,
            },
            other => ServeError::InvalidConfig {
                reason: other.to_string(),
            },
        })?;
        Self::from_arena(arena, shards)
    }

    /// Partition an existing [`RowArena`] into at most `shards` contiguous row-range
    /// views without copying a single row — the table shares the arena's allocation
    /// with the caller and with every clone of itself.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `shards` is zero.
    pub fn from_arena(arena: RowArena<T>, shards: usize) -> Result<Self, ServeError> {
        if shards == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "sharded table needs nonzero dim and shard count, got dim={} shards={shards}",
                    arena.dim()
                ),
            });
        }
        let rows_per_shard = arena.rows().div_ceil(shards).max(1);
        let num_shards = arena.rows().div_ceil(rows_per_shard);
        Ok(Self {
            rows_per_shard,
            num_shards,
            arena,
            node_caches: None,
        })
    }

    /// Install one hot-row cache per shard (capacity `per_shard_capacity` rows each,
    /// replaced under `policy`), turning this table into the in-process model of
    /// per-shard-node caching: [`ShardedTable::fetch_into`] serves repeated rows from
    /// the owning shard's cache instead of its storage. A zero capacity removes the
    /// caches again. The caches are shared across clones of this table, the way a
    /// shard node's cache is shared across its workers.
    pub fn install_node_caches(&mut self, per_shard_capacity: usize, policy: CachePolicy) {
        self.node_caches = (per_shard_capacity > 0).then(|| {
            Arc::new(
                (0..self.num_shards)
                    .map(|_| {
                        Mutex::new(HotRowCache::with_policy(
                            per_shard_capacity,
                            self.arena.dim(),
                            policy,
                        ))
                    })
                    .collect::<Vec<_>>(),
            )
        });
    }

    /// Whether per-shard-node caches are installed.
    pub fn node_cached(&self) -> bool {
        self.node_caches.is_some()
    }

    /// Aggregated counters of the per-shard-node caches (all-zero when none are
    /// installed).
    pub fn node_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        if let Some(caches) = &self.node_caches {
            for cache in caches.iter() {
                total.merge(&cache.lock().expect("node cache lock").stats());
            }
        }
        total
    }

    /// Zero the node caches' counters (resident rows are kept).
    pub fn reset_node_cache_stats(&mut self) {
        if let Some(caches) = &self.node_caches {
            for cache in caches.iter() {
                cache.lock().expect("node cache lock").reset_stats();
            }
        }
    }

    /// Serve one row fetch through a shard's node cache: a hit copies the cached row,
    /// a miss reads storage and admits the row per the cache's policy.
    fn fetch_via_cache(&self, cache: &Mutex<HotRowCache<T>>, row: u32, chunk: &mut [T]) {
        let mut cache = cache.lock().expect("node cache lock");
        if let Some(data) = cache.lookup(row) {
            chunk.copy_from_slice(data);
        } else {
            chunk.copy_from_slice(self.row(row));
            cache.insert(row, chunk);
        }
    }

    /// Total number of rows across all shards.
    pub fn rows(&self) -> usize {
        self.arena.rows()
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.arena.dim()
    }

    /// Number of shards actually created.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shared row storage every shard views. Memory-accounting tests use this to
    /// assert that sharding aliases one allocation instead of copying rows.
    pub fn arena(&self) -> &RowArena<T> {
        &self.arena
    }

    /// Rows per shard (the last shard may hold fewer).
    pub fn rows_per_shard(&self) -> usize {
        self.rows_per_shard
    }

    /// The shard owning a row id.
    #[inline]
    pub fn shard_of(&self, row: u32) -> usize {
        row as usize / self.rows_per_shard
    }

    /// Borrow one row straight from the shared arena. Panics if `row` is out of range;
    /// use [`ShardedTable::check_indices`] up front on untrusted input.
    #[inline]
    pub fn row(&self, row: u32) -> &[T] {
        self.arena.row(row as usize)
    }

    /// Validate that every index addresses a valid row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::RowOutOfRange`] naming the first offending index.
    pub fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError> {
        for &index in indices {
            if index as usize >= self.arena.rows() {
                return Err(ServeError::RowOutOfRange {
                    row: index as usize,
                    rows: self.arena.rows(),
                });
            }
        }
        Ok(())
    }

    /// Copy the requested rows into per-row output chunks, fanning the work out with one
    /// scoped worker thread per shard (each shard's fetches are independent). Indices
    /// must already be validated; `work` pairs a row id with its destination chunk.
    ///
    /// Small batches run serially — the spawn overhead is not worth paying below the
    /// [`worker_count`] threshold.
    pub fn fetch_into(&self, work: Vec<(u32, &mut [T])>) {
        debug_assert!(work
            .iter()
            .all(|(_, chunk)| chunk.len() == self.arena.dim()));
        let fetch = |row: u32, chunk: &mut [T]| match &self.node_caches {
            Some(caches) => self.fetch_via_cache(&caches[self.shard_of(row)], row, chunk),
            None => chunk.copy_from_slice(self.row(row)),
        };
        if worker_count(work.len()) <= 1 || self.num_shards <= 1 {
            // The serial path visits rows in flat order, so each shard's cache sees
            // the same subsequence it would from its dedicated worker below.
            for (row, chunk) in work {
                fetch(row, chunk);
            }
            return;
        }
        let mut per_shard: Vec<Vec<(u32, &mut [T])>> =
            (0..self.num_shards).map(|_| Vec::new()).collect();
        for (row, chunk) in work {
            per_shard[self.shard_of(row)].push((row, chunk));
        }
        std::thread::scope(|scope| {
            for jobs in per_shard.into_iter().filter(|jobs| !jobs.is_empty()) {
                scope.spawn(|| {
                    for (row, chunk) in jobs {
                        fetch(row, chunk);
                    }
                });
            }
        });
    }

    /// Sum-pool a CSR batch of multi-hot requests into `out` (`batch.len() × dim`,
    /// row-major), accumulating each request's rows in index order with
    /// [`Lane::accumulate`] and fanning requests out across worker threads. An empty
    /// request pools to the all-default (zero) row.
    ///
    /// For `f32` this is bit-identical to
    /// [`EmbeddingTable::pool`](imars_recsys::embedding::EmbeddingTable::pool) over the
    /// same rows; for `i8` it is bit-identical to
    /// [`PackedTable::pool`](imars_fabric::cma::PackedTable::pool).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShapeMismatch`] if `out` is not `batch.len() * dim` long,
    /// or [`ServeError::RowOutOfRange`] if any request references an invalid row.
    pub fn pool_batch(&self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError> {
        let dim = self.arena.dim();
        if out.len() != batch.len() * dim {
            return Err(ServeError::ShapeMismatch {
                what: "batch pooling output",
                expected: batch.len() * dim,
                actual: out.len(),
            });
        }
        self.check_indices(batch.indices())?;
        let mut slots: Vec<&mut [T]> = out.chunks_mut(dim).collect();
        par_runs(&mut slots, |first, run| {
            for (i, slot) in run.iter_mut().enumerate() {
                slot.fill(T::default());
                for &row in batch.request(first + i) {
                    T::accumulate_slice(slot, self.row(row));
                }
            }
        });
        Ok(())
    }
}

impl<T: Lane> RowSource<T> for ShardedTable<T> {
    fn dim(&self) -> usize {
        ShardedTable::dim(self)
    }

    fn num_shards(&self) -> usize {
        ShardedTable::num_shards(self)
    }

    fn home_shard(&self, history: &[u32]) -> usize {
        let mut counts = vec![0u64; self.num_shards.max(1)];
        let last = counts.len() - 1;
        for &row in history {
            counts[self.shard_of(row).min(last)] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map_or(0, |(shard, _)| shard)
    }

    fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError> {
        ShardedTable::check_indices(self, indices)
    }

    fn fetch_rows(&mut self, work: Vec<(u32, &mut [T])>) -> Result<(), ServeError> {
        self.fetch_into(work);
        Ok(())
    }

    fn pool_direct(&mut self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError> {
        self.pool_batch(batch, out)
    }

    fn node_cached(&self) -> bool {
        ShardedTable::node_cached(self)
    }

    fn node_cache_stats(&self) -> CacheStats {
        ShardedTable::node_cache_stats(self)
    }

    fn reset_stats(&mut self) {
        self.reset_node_cache_stats();
    }

    fn catalogue_resident_bytes(&self) -> Option<usize> {
        Some(self.arena.resident_bytes())
    }
}

/// Shard a full-precision embedding table.
///
/// # Errors
///
/// As for [`ShardedTable::from_rows`].
pub fn shard_embedding(
    table: &EmbeddingTable,
    shards: usize,
) -> Result<ShardedTable<f32>, ServeError> {
    ShardedTable::from_rows(table.iter_rows(), table.dim(), shards)
}

/// Shard an int8-quantized embedding table.
///
/// # Errors
///
/// As for [`ShardedTable::from_rows`].
pub fn shard_quantized(
    table: &QuantizedTable,
    shards: usize,
) -> Result<ShardedTable<i8>, ServeError> {
    ShardedTable::from_rows(table.iter_rows(), table.dim(), shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imars_fabric::cma::PackedTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
        EmbeddingTable::new(rows, dim, seed).unwrap()
    }

    #[test]
    fn construction_validates_and_partitions() {
        let t = table(100, 8, 1);
        let sharded = shard_embedding(&t, 4).unwrap();
        assert_eq!(sharded.rows(), 100);
        assert_eq!(sharded.dim(), 8);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.rows_per_shard(), 25);
        assert_eq!(sharded.shard_of(0), 0);
        assert_eq!(sharded.shard_of(24), 0);
        assert_eq!(sharded.shard_of(25), 1);
        assert_eq!(sharded.shard_of(99), 3);
        assert!(ShardedTable::<f32>::from_rows(std::iter::empty(), 0, 4).is_err());
        assert!(ShardedTable::<f32>::from_rows(std::iter::empty(), 4, 0).is_err());
        let ragged: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0]];
        assert!(matches!(
            ShardedTable::from_rows(ragged, 2, 2),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    /// The arena tentpole's memory accounting: sharding a table moves ONE allocation
    /// into the arena (pointer-identical to the table's own buffer) and shard views are
    /// offset ranges over it — no per-shard row copies, in either dtype.
    #[test]
    fn sharding_reuses_the_table_allocation_without_row_copies() {
        let t = table(1000, 8, 7);
        let data_ptr = t.lookup(0).unwrap().as_ptr();
        let arena = t.into_arena();
        let sharded = ShardedTable::from_arena(arena.clone(), 8).unwrap();
        assert_eq!(sharded.num_shards(), 8);
        assert_eq!(sharded.arena().storage_ptr(), data_ptr);
        assert!(sharded.arena().shares_storage(&arena));
        // Two handles (ours + the table's), one allocation's worth of bytes.
        assert_eq!(arena.handle_count(), 2);
        assert_eq!(
            arena.resident_bytes(),
            1000 * 8 * std::mem::size_of::<f32>()
        );

        let quantized = QuantizedTable::from_table(&table(1000, 8, 9));
        let int8_ptr = quantized.row(0).unwrap().as_ptr();
        let (int8_arena, _) = quantized.into_arena();
        let sharded = ShardedTable::from_arena(int8_arena.clone(), 8).unwrap();
        assert_eq!(sharded.arena().storage_ptr(), int8_ptr);
        assert_eq!(int8_arena.handle_count(), 2);
        assert_eq!(int8_arena.resident_bytes(), 1000 * 8);
    }

    #[test]
    fn fewer_rows_than_shards_collapses() {
        let t = table(3, 4, 2);
        let sharded = shard_embedding(&t, 16).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.rows_per_shard(), 1);
        for row in 0..3u32 {
            assert_eq!(sharded.row(row), t.lookup(row as usize).unwrap());
        }
    }

    #[test]
    fn rows_match_the_source_table_across_shards() {
        let t = table(97, 16, 3);
        for shards in [1, 2, 3, 8, 97] {
            let sharded = shard_embedding(&t, shards).unwrap();
            for row in 0..97u32 {
                assert_eq!(
                    sharded.row(row),
                    t.lookup(row as usize).unwrap(),
                    "shards={shards} row={row}"
                );
            }
        }
    }

    #[test]
    fn check_indices_names_the_offender() {
        let sharded = shard_embedding(&table(10, 4, 4), 2).unwrap();
        assert!(sharded.check_indices(&[0, 9]).is_ok());
        assert!(matches!(
            sharded.check_indices(&[0, 10]),
            Err(ServeError::RowOutOfRange { row: 10, rows: 10 })
        ));
    }

    #[test]
    fn fetch_into_copies_rows_in_parallel() {
        let t = table(256, 8, 5);
        let sharded = shard_embedding(&t, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let rows: Vec<u32> = (0..300).map(|_| rng.gen_range(0..256u32)).collect();
        let mut out = vec![0.0f32; rows.len() * 8];
        let work: Vec<(u32, &mut [f32])> = rows.iter().copied().zip(out.chunks_mut(8)).collect();
        sharded.fetch_into(work);
        for (&row, chunk) in rows.iter().zip(out.chunks(8)) {
            assert_eq!(chunk, t.lookup(row as usize).unwrap());
        }
    }

    #[test]
    fn f32_pool_batch_matches_embedding_table_bit_for_bit() {
        let t = table(128, 16, 7);
        let sharded = shard_embedding(&t, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let requests: Vec<Vec<u32>> = (0..50)
            .map(|_| {
                let count = rng.gen_range(0..20usize);
                (0..count).map(|_| rng.gen_range(0..128u32)).collect()
            })
            .collect();
        let batch = PoolingBatch::from_requests(&requests);
        let mut out = vec![0.0f32; batch.len() * 16];
        sharded.pool_batch(&batch, &mut out).unwrap();
        for (request, chunk) in requests.iter().zip(out.chunks(16)) {
            let indices: Vec<usize> = request.iter().map(|&r| r as usize).collect();
            assert_eq!(chunk, t.pool(&indices).unwrap().as_slice());
        }
    }

    #[test]
    fn i8_pool_batch_matches_packed_table_bit_for_bit() {
        let rows: Vec<Vec<i8>> = (0..64)
            .map(|r| {
                (0..32)
                    .map(|i| ((r * 37 + i * 11) % 255 - 127) as i8)
                    .collect()
            })
            .collect();
        let packed = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), 32).unwrap();
        let sharded = ShardedTable::from_rows(rows.iter().map(|r| r.as_slice()), 32, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let requests: Vec<Vec<u32>> = (0..40)
            .map(|_| {
                let count = rng.gen_range(0..12usize);
                (0..count).map(|_| rng.gen_range(0..64u32)).collect()
            })
            .collect();
        let batch = PoolingBatch::from_requests(&requests);
        let mut out = vec![0i8; batch.len() * 32];
        sharded.pool_batch(&batch, &mut out).unwrap();
        for (request, chunk) in requests.iter().zip(out.chunks(32)) {
            assert_eq!(chunk, packed.pool(request).unwrap().as_slice());
        }
    }

    #[test]
    fn pool_batch_validates_shape_and_indices() {
        let sharded = shard_embedding(&table(10, 4, 10), 2).unwrap();
        let batch = PoolingBatch::from_requests(&[vec![1u32, 2]]);
        let mut short = vec![0.0f32; 2];
        assert!(matches!(
            sharded.pool_batch(&batch, &mut short),
            Err(ServeError::ShapeMismatch { .. })
        ));
        let bad = PoolingBatch::from_requests(&[vec![99u32]]);
        let mut out = vec![0.0f32; 4];
        assert!(matches!(
            sharded.pool_batch(&bad, &mut out),
            Err(ServeError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn quantized_sharding_round_trips() {
        let t = table(60, 8, 11);
        let quantized = QuantizedTable::from_table(&t);
        let sharded = shard_quantized(&quantized, 3).unwrap();
        assert_eq!(sharded.rows(), 60);
        for row in 0..60u32 {
            assert_eq!(sharded.row(row), quantized.row(row as usize).unwrap());
        }
    }
}
