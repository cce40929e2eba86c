//! Length-prefixed binary framing over Unix-domain sockets: the cluster's real
//! multi-process transport.
//!
//! The in-process cluster ([`crate::cluster`]) moves sub-requests over shared-memory
//! queues, which is the deterministic reference — but a deployable iMARS cluster puts
//! each shard node in its own process. This module provides that transport while
//! keeping the router code identical on both paths:
//!
//! ```text
//! [u32 LE frame length][u8 kind][u32 LE shard][u64 LE tag][payload...]
//! ```
//!
//! The length prefix covers everything after itself (header + payload), so a reader
//! never needs to know a frame's kind to skip or buffer it, and the same framing works
//! over any byte stream (TCP included — nothing below is Unix-socket specific except
//! the connector). Frame kinds:
//!
//! | kind | name | payload |
//! |------|------|---------|
//! | 1 | `LOAD` | `elem_bytes u32, dim u32, count u32`, then `count ×` (`row u32` + row bytes) |
//! | 2 | `FETCH` | `trace u8` (trace-context flag), then `count × row u32`; the response echoes the tag |
//! | 3 | `ROWS` | requested rows' bytes concatenated in request order |
//! | 4 | `ERROR` | UTF-8 description; the connection is considered poisoned |
//! | 5 | `CHAOS` | `fault u8, fire_after u64, param u64` (fault-injection control) |
//! | 6 | `SHUTDOWN` | empty; the node stops accepting and exits its accept loop |
//! | 7 | `CACHE` | `capacity u64, policy u8`; arm the node's hot-row cache |
//! | 8 | `STATS` | `hits, misses, insertions, evictions, rejections` (`u64` each): one fetch's node-cache counter deltas, sent before its `ROWS` frame |
//! | 9 | `NODE_SPAN` | `queue_wait, cache_probe, storage_read` (`f64` µs each): the node's server-side span for one traced fetch, sent before its `ROWS` frame |
//!
//! The shard node ([`run_shard_node`]) is type-agnostic: it stores rows as opaque byte
//! blobs keyed by global row id (`elem_bytes` comes from the `LOAD` frame), so one node
//! binary serves fp32 and int8 tables alike. Multiple connections share the loaded
//! storage — the threaded runtime's per-worker router clones each dial their own
//! connection.
//!
//! The client side (`SocketLink`) gives the router queue-identical semantics:
//! a **bounded write-ahead queue** feeds a writer thread, so backpressure surfaces as
//! [`PushError::Full`] exactly like a shard queue at capacity — never as unbounded
//! buffering — and a reader thread decodes `ROWS` frames into the router's reply queue.
//! A dead node trips the link's `closed` flag (the fault-tolerant router polls it)
//! without ever closing the shared reply queue: one shard's death must not wedge
//! gathers from healthy shards.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cache::{CachePolicy, CacheStats, HotRowCache};
use crate::clock::{Clock, WallClock};
use crate::cluster::{read_rows, ClusterCounters, SubResponse};
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::shard::Lane;
use crate::trace::NodeSpan;

/// `LOAD`: install a shard's resident rows.
pub const KIND_LOAD: u8 = 1;
/// `FETCH`: request rows by global id.
pub const KIND_FETCH: u8 = 2;
/// `ROWS`: a fetch response.
pub const KIND_ROWS: u8 = 3;
/// `ERROR`: the node rejected a frame.
pub const KIND_ERROR: u8 = 4;
/// `CHAOS`: arm fault injection on the node.
pub const KIND_CHAOS: u8 = 5;
/// `SHUTDOWN`: stop the node.
pub const KIND_SHUTDOWN: u8 = 6;
/// `CACHE`: arm the node's hot-row cache (capacity + policy).
pub const KIND_CACHE: u8 = 7;
/// `STATS`: one fetch's node-cache counter deltas (precedes its `ROWS` frame).
pub const KIND_STATS: u8 = 8;
/// `NODE_SPAN`: a traced fetch's server-side span (precedes its `ROWS` frame).
pub const KIND_NODE_SPAN: u8 = 9;

/// Upper bound on one frame's length field — a corrupt prefix must not allocate
/// gigabytes. 256 MiB comfortably holds the largest catalogue partition the
/// evaluation drivers load.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Bytes of frame header after the length prefix: kind + shard + tag.
const HEADER_BYTES: usize = 1 + 4 + 8;

/// How long a stalled peer may block the writer thread before the link declares the
/// write failed and closes (a stalled node stops draining its socket; the OS buffer
/// is finite, and the writer must not hang [`SocketLink`]'s drop path forever).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// One decoded transport frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// The shard the frame addresses (echoed in responses).
    pub shard: u32,
    /// Request/response correlation tag (fetch frames; zero elsewhere).
    pub tag: u64,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serialize into length-prefixed wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let body = HEADER_BYTES + self.payload.len();
        let mut out = Vec::with_capacity(4 + body);
        out.extend_from_slice(&(body as u32).to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Read one frame off a byte stream.
    ///
    /// # Errors
    ///
    /// I/O errors from the stream, or [`io::ErrorKind::InvalidData`] when the length
    /// prefix is shorter than a header or larger than [`MAX_FRAME_BYTES`].
    pub fn read_from(reader: &mut impl Read) -> io::Result<Frame> {
        let mut prefix = [0u8; 4];
        reader.read_exact(&mut prefix)?;
        let length = u32::from_le_bytes(prefix) as usize;
        if !(HEADER_BYTES..=MAX_FRAME_BYTES).contains(&length) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {length} outside [{HEADER_BYTES}, {MAX_FRAME_BYTES}]"),
            ));
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        Ok(Frame {
            kind: body[0],
            shard: u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")),
            tag: u64::from_le_bytes(body[5..13].try_into().expect("8 bytes")),
            payload: body[HEADER_BYTES..].to_vec(),
        })
    }
}

/// Encode a `LOAD` frame carrying `resident` rows of the catalogue, read straight from
/// the shared [`RowArena`] (the encoder is the only copy the handshake makes — the
/// router keeps no per-shard row storage).
pub(crate) fn encode_load<T: Lane>(
    shard: u32,
    arena: &imars_recsys::arena::RowArena<T>,
    resident: &[u32],
) -> Vec<u8> {
    let dim = arena.dim();
    let mut payload = Vec::with_capacity(12 + resident.len() * (4 + dim * T::WIRE_BYTES));
    payload.extend_from_slice(&(T::WIRE_BYTES as u32).to_le_bytes());
    payload.extend_from_slice(&(dim as u32).to_le_bytes());
    payload.extend_from_slice(&(resident.len() as u32).to_le_bytes());
    for &row in resident {
        payload.extend_from_slice(&row.to_le_bytes());
        for &value in arena.row(row as usize) {
            value.to_wire(&mut payload);
        }
    }
    Frame {
        kind: KIND_LOAD,
        shard,
        tag: 0,
        payload,
    }
    .encode()
}

/// Encode a `FETCH` frame for `rows`. When `traced` is set the node measures its
/// server-side span (queue wait, cache probe, storage read) for this fetch and ships
/// it back on a `NODE_SPAN` frame ahead of the `ROWS` frame — the UDS trace context.
pub(crate) fn encode_fetch(shard: u32, tag: u64, rows: &[u32], traced: bool) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + rows.len() * 4);
    payload.push(traced as u8);
    for &row in rows {
        payload.extend_from_slice(&row.to_le_bytes());
    }
    Frame {
        kind: KIND_FETCH,
        shard,
        tag,
        payload,
    }
    .encode()
}

/// Encode a `CHAOS` frame arming `fault` (a [`crate::chaos::FaultKind`] wire code)
/// after `fire_after` served fetches, with a fault-specific `param`.
pub(crate) fn encode_chaos(shard: u32, fault: u8, fire_after: u64, param: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(17);
    payload.push(fault);
    payload.extend_from_slice(&fire_after.to_le_bytes());
    payload.extend_from_slice(&param.to_le_bytes());
    Frame {
        kind: KIND_CHAOS,
        shard,
        tag: 0,
        payload,
    }
    .encode()
}

/// Encode a `CACHE` frame arming a hot-row cache of `capacity` rows under `policy` on
/// the node.
pub(crate) fn encode_cache_config(shard: u32, capacity: u64, policy: CachePolicy) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.extend_from_slice(&capacity.to_le_bytes());
    payload.push(policy.wire_code());
    Frame {
        kind: KIND_CACHE,
        shard,
        tag: 0,
        payload,
    }
    .encode()
}

/// Encode a `STATS` frame reporting one fetch's node-cache counter deltas.
fn encode_stats(shard: u32, tag: u64, delta: &CacheStats) -> Vec<u8> {
    let mut payload = Vec::with_capacity(40);
    for value in [
        delta.hits,
        delta.misses,
        delta.insertions,
        delta.evictions,
        delta.rejections,
    ] {
        payload.extend_from_slice(&value.to_le_bytes());
    }
    Frame {
        kind: KIND_STATS,
        shard,
        tag,
        payload,
    }
    .encode()
}

/// Encode a `NODE_SPAN` frame carrying one traced fetch's server-side span.
fn encode_node_span(shard: u32, tag: u64, span: &NodeSpan) -> Vec<u8> {
    let mut payload = Vec::with_capacity(24);
    for value in [
        span.queue_wait_us,
        span.cache_probe_us,
        span.storage_read_us,
    ] {
        payload.extend_from_slice(&value.to_le_bytes());
    }
    Frame {
        kind: KIND_NODE_SPAN,
        shard,
        tag,
        payload,
    }
    .encode()
}

/// Decode a `NODE_SPAN` payload back into a span (`None` when malformed).
fn decode_node_span(payload: &[u8]) -> Option<NodeSpan> {
    if payload.len() != 24 {
        return None;
    }
    let field =
        |i: usize| f64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    Some(NodeSpan {
        queue_wait_us: field(0),
        cache_probe_us: field(1),
        storage_read_us: field(2),
    })
}

/// Decode a `STATS` payload back into counter deltas (`None` when malformed).
fn decode_stats(payload: &[u8]) -> Option<CacheStats> {
    if payload.len() != 40 {
        return None;
    }
    let word =
        |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    Some(CacheStats {
        hits: word(0),
        coalesced: 0,
        misses: word(1),
        insertions: word(2),
        evictions: word(3),
        rejections: word(4),
    })
}

/// Encode a `SHUTDOWN` frame.
pub(crate) fn encode_shutdown(shard: u32) -> Vec<u8> {
    Frame {
        kind: KIND_SHUTDOWN,
        shard,
        tag: 0,
        payload: Vec::new(),
    }
    .encode()
}

/// A shard node's byte-blob row store, installed by a `LOAD` frame.
#[derive(Debug, Default)]
struct NodeStorage {
    row_bytes: usize,
    rows: HashMap<u32, Vec<u8>>,
}

impl NodeStorage {
    fn decode(payload: &[u8]) -> io::Result<Self> {
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed LOAD payload");
        if payload.len() < 12 {
            return Err(bad());
        }
        let elem_bytes = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
        let dim = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")) as usize;
        let count = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
        // Every size comes off the wire: a wrapped product must not pass the length
        // check and then slice past the payload.
        let row_bytes = elem_bytes.checked_mul(dim).ok_or_else(bad)?;
        let expected = row_bytes
            .checked_add(4)
            .and_then(|entry| entry.checked_mul(count))
            .and_then(|body| body.checked_add(12))
            .ok_or_else(bad)?;
        if row_bytes == 0 || payload.len() != expected {
            return Err(bad());
        }
        let mut rows = HashMap::with_capacity(count);
        let mut at = 12;
        for _ in 0..count {
            let row = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
            rows.insert(row, payload[at + 4..at + 4 + row_bytes].to_vec());
            at += 4 + row_bytes;
        }
        Ok(Self { row_bytes, rows })
    }
}

/// A node's hot-row cache arming, set by a `CACHE` frame. The cache itself is built
/// lazily on the first fetch after both the config and the storage (which fixes the
/// row width) are known, and is shared by every connection — the node caches where
/// its rows live, regardless of how many router clones dial in.
#[derive(Debug, Default)]
struct NodeCache {
    capacity: usize,
    policy: CachePolicy,
    /// The byte-blob cache (`dim` = row bytes): the node is type-agnostic, so it
    /// caches wire bytes exactly as stored.
    cache: Option<HotRowCache<u8>>,
}

impl NodeCache {
    /// The armed cache, created on first use once `row_bytes` is known. `None` when
    /// node caching is off (or storage is not loaded yet).
    fn armed(&mut self, row_bytes: usize) -> Option<&mut HotRowCache<u8>> {
        if self.capacity == 0 || row_bytes == 0 {
            return None;
        }
        if self.cache.is_none() {
            self.cache = Some(HotRowCache::with_policy(
                self.capacity,
                row_bytes,
                self.policy,
            ));
        }
        self.cache.as_mut()
    }
}

/// A node's armed fault, set by a `CHAOS` frame (zero kind = none).
#[derive(Debug, Default)]
struct NodeChaos {
    fault: AtomicU8,
    fire_after: AtomicU64,
    param: AtomicU64,
    served: AtomicU64,
    dropped: AtomicU64,
}

/// Serve one shard node on a Unix socket until a `SHUTDOWN` frame arrives. This is the
/// body of the `serve_replay --shard-node <socket>` process mode: bind, accept, serve
/// `LOAD`/`FETCH` frames, honour `CHAOS` arming. All accepted connections share the
/// loaded storage. A `CHAOS` kill exits the whole process (code 3) — run the node in
/// its own process, never in a thread of something you care about.
///
/// # Errors
///
/// Binding or accepting on the socket can fail with the underlying I/O error.
pub fn run_shard_node(path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let storage = Arc::new(Mutex::new(NodeStorage::default()));
    let cache = Arc::new(Mutex::new(NodeCache::default()));
    let chaos = Arc::new(NodeChaos::default());
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let storage = storage.clone();
                let cache = cache.clone();
                let chaos = chaos.clone();
                let stop = stop.clone();
                // Connection threads are not joined: each exits on its own EOF (the
                // client hangs up) or when `stop` trips; the accept loop only has to
                // stop handing out new ones.
                std::thread::spawn(move || {
                    serve_connection(stream, &storage, &cache, &chaos, &stop)
                });
            }
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(error) => return Err(error),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn serve_connection(
    mut stream: UnixStream,
    storage: &Mutex<NodeStorage>,
    cache: &Mutex<NodeCache>,
    chaos: &NodeChaos,
    stop: &AtomicBool,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match Frame::read_from(&mut stream) {
            Ok(frame) => frame,
            Err(_) => return, // EOF or corrupt stream: this connection is done
        };
        match frame.kind {
            KIND_LOAD => match NodeStorage::decode(&frame.payload) {
                Ok(loaded) => *storage.lock().expect("node storage lock") = loaded,
                Err(_) => {
                    let _ = stream.write_all(
                        &Frame {
                            kind: KIND_ERROR,
                            shard: frame.shard,
                            tag: frame.tag,
                            payload: b"malformed LOAD".to_vec(),
                        }
                        .encode(),
                    );
                    return;
                }
            },
            KIND_FETCH => {
                match armed_fault(chaos) {
                    1 => std::process::exit(3), // chaos kill: the node dies mid-replay
                    2 => {
                        // Stall: stay connected but never answer again.
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        return;
                    }
                    3 => std::thread::sleep(Duration::from_micros(
                        chaos.param.load(Ordering::SeqCst),
                    )),
                    4 => continue, // drop the reply frame on the floor
                    _ => {}
                }
                // Leading trace-context flag byte; row ids follow. A traced fetch
                // measures the node's own span (queue wait = time to the storage
                // lock, cache probe, storage read) on its wall clock and ships it
                // back on a `NODE_SPAN` frame ahead of the rows.
                let traced = frame.payload.first().copied().unwrap_or(0) != 0;
                let ids = frame.payload.get(1..).unwrap_or(&[]).chunks_exact(4);
                let clock = traced.then(WallClock::new);
                let mut span = NodeSpan::default();
                let (response, stats_delta) = {
                    let storage = storage.lock().expect("node storage lock");
                    let mut node_cache = cache.lock().expect("node cache lock");
                    span.queue_wait_us = clock.as_ref().map_or(0.0, WallClock::now_us);
                    let mut payload = Vec::with_capacity(ids.len() * storage.row_bytes);
                    match read_rows(
                        ids.map(|id| u32::from_le_bytes(id.try_into().expect("4 bytes"))),
                        node_cache.armed(storage.row_bytes),
                        |row| storage.rows.get(&row).map(Vec::as_slice),
                        clock.as_ref().map(|clock| clock as &dyn Clock),
                        &mut span,
                        &mut payload,
                    ) {
                        Ok(delta) => (
                            Frame {
                                kind: KIND_ROWS,
                                shard: frame.shard,
                                tag: frame.tag,
                                payload,
                            },
                            delta,
                        ),
                        // A non-resident row fails the whole fetch; the router's link
                        // closes on the error frame.
                        Err(_) => (
                            Frame {
                                kind: KIND_ERROR,
                                shard: frame.shard,
                                tag: frame.tag,
                                payload: b"row not resident".to_vec(),
                            },
                            None,
                        ),
                    }
                };
                // STATS travels *before* the data frame: the link's reader folds the
                // delta into the shared counters and only then delivers the rows, so
                // by the time the router gathers a reply the node-cache counters
                // already cover it (same happens-before the in-process workers give).
                if let Some(delta) = stats_delta {
                    if stream
                        .write_all(&encode_stats(frame.shard, frame.tag, &delta))
                        .is_err()
                    {
                        return;
                    }
                }
                // The span frame also precedes the rows, so a gathered reply's trace
                // context is already stashed link-side when the response lands.
                if traced
                    && response.kind == KIND_ROWS
                    && stream
                        .write_all(&encode_node_span(frame.shard, frame.tag, &span))
                        .is_err()
                {
                    return;
                }
                if stream.write_all(&response.encode()).is_err() {
                    return;
                }
            }
            KIND_CHAOS => {
                if frame.payload.len() == 17 {
                    chaos.fire_after.store(
                        u64::from_le_bytes(frame.payload[1..9].try_into().expect("8 bytes")),
                        Ordering::SeqCst,
                    );
                    chaos.param.store(
                        u64::from_le_bytes(frame.payload[9..17].try_into().expect("8 bytes")),
                        Ordering::SeqCst,
                    );
                    chaos.fault.store(frame.payload[0], Ordering::SeqCst);
                }
            }
            KIND_CACHE => {
                if frame.payload.len() == 9 {
                    let capacity =
                        u64::from_le_bytes(frame.payload[0..8].try_into().expect("8 bytes"))
                            as usize;
                    let Some(policy) = CachePolicy::from_wire(frame.payload[8]) else {
                        return; // unknown policy: protocol violation, drop the link
                    };
                    let mut state = cache.lock().expect("node cache lock");
                    // Re-arming with the same config (a router clone's re-dial) keeps
                    // the warm cache; a different config rebuilds it cold.
                    if state.capacity != capacity || state.policy != policy {
                        *state = NodeCache {
                            capacity,
                            policy,
                            cache: None,
                        };
                    }
                }
            }
            KIND_SHUTDOWN => {
                stop.store(true, Ordering::SeqCst);
                return;
            }
            _ => return,
        }
    }
}

/// Which armed fault applies to the fetch being served right now (0 = serve normally).
fn armed_fault(chaos: &NodeChaos) -> u8 {
    let fault = chaos.fault.load(Ordering::SeqCst);
    if fault == 0 {
        return 0;
    }
    let served = chaos.served.fetch_add(1, Ordering::SeqCst) + 1;
    if served <= chaos.fire_after.load(Ordering::SeqCst) {
        return 0;
    }
    if fault == 4 {
        // Drop a bounded number of reply frames, then recover.
        if chaos.dropped.fetch_add(1, Ordering::SeqCst) < chaos.param.load(Ordering::SeqCst) {
            return 4;
        }
        return 0;
    }
    fault
}

/// The client end of one shard-node connection: a bounded write-ahead queue feeding a
/// writer thread, and a reader thread decoding `ROWS` frames into the owning router's
/// reply queue. Mirrors a shard queue's backpressure semantics; a broken connection
/// trips `closed` instead of touching the shared reply queue.
#[derive(Debug)]
pub(crate) struct SocketLink<T> {
    shard: usize,
    path: PathBuf,
    dim: usize,
    /// Encoded frames awaiting the writer thread — the bounded write-ahead.
    write: Arc<BoundedQueue<Vec<u8>>>,
    closed: Arc<AtomicBool>,
    /// The encoded handshake bytes — a `LOAD` frame, optionally followed by a `CACHE`
    /// frame — kept so a router clone can re-dial and re-install storage (and re-arm
    /// the node cache) on its own connection; both are idempotent on the node.
    load_frame: Arc<Vec<u8>>,
    /// Where the reader thread folds `STATS` frames (node-cache counter deltas);
    /// `None` drops them, for links dialed outside a cluster.
    counters: Option<Arc<ClusterCounters>>,
    stream: UnixStream,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    _lane: std::marker::PhantomData<fn() -> T>,
}

impl<T: Lane> SocketLink<T> {
    /// Dial a shard node, install its rows (`load_frame` is written before anything
    /// else, so fetches on this connection always see loaded storage), and spawn the
    /// writer/reader threads. `reply` is where decoded responses land.
    ///
    /// # Errors
    ///
    /// Connection or handshake I/O errors.
    pub(crate) fn connect(
        shard: usize,
        path: &Path,
        dim: usize,
        load_frame: Arc<Vec<u8>>,
        write_capacity: usize,
        reply: Arc<BoundedQueue<SubResponse<T>>>,
        counters: Option<Arc<ClusterCounters>>,
    ) -> io::Result<Self> {
        let mut stream = UnixStream::connect(path)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.write_all(&load_frame)?;
        let write: Arc<BoundedQueue<Vec<u8>>> = Arc::new(BoundedQueue::new(write_capacity));
        let closed = Arc::new(AtomicBool::new(false));
        let writer = {
            let mut stream = stream.try_clone()?;
            let write = write.clone();
            let closed = closed.clone();
            std::thread::spawn(move || loop {
                match write.pop() {
                    Pop::Item(frame) => {
                        if stream.write_all(&frame).is_err() {
                            closed.store(true, Ordering::SeqCst);
                            write.close();
                            return;
                        }
                    }
                    Pop::Closed => return,
                    Pop::TimedOut => continue,
                }
            })
        };
        let reader = {
            let mut stream = stream.try_clone()?;
            let write = write.clone();
            let closed = closed.clone();
            let counters = counters.clone();
            std::thread::spawn(move || {
                // Server-side spans arrive on `NODE_SPAN` frames ahead of their
                // `ROWS` frame; stash them by tag and attach to the matching reply.
                let mut pending_spans: HashMap<u64, NodeSpan> = HashMap::new();
                loop {
                    let frame = match Frame::read_from(&mut stream) {
                        Ok(frame) => frame,
                        Err(_) => {
                            // EOF / reset: the node died or hung up. Flag the link; the
                            // shared reply queue stays open for the healthy shards.
                            closed.store(true, Ordering::SeqCst);
                            write.close();
                            return;
                        }
                    };
                    match frame.kind {
                        KIND_ROWS => {
                            let mut data = Vec::with_capacity(frame.payload.len() / T::WIRE_BYTES);
                            for element in frame.payload.chunks_exact(T::WIRE_BYTES) {
                                data.push(T::from_wire(element));
                            }
                            let response = SubResponse {
                                tag: frame.tag,
                                shard: frame.shard as usize,
                                data,
                                node_span: pending_spans.remove(&frame.tag),
                            };
                            if reply.push(response).is_err() {
                                return; // the router is gone; nothing left to deliver to
                            }
                        }
                        KIND_STATS => {
                            // Node-cache counter deltas. A malformed payload is a protocol
                            // violation like any other unexpected frame.
                            match decode_stats(&frame.payload) {
                                Some(delta) => {
                                    if let Some(counters) = &counters {
                                        counters.record_node_cache(frame.shard as usize, &delta);
                                    }
                                }
                                None => {
                                    closed.store(true, Ordering::SeqCst);
                                    write.close();
                                    return;
                                }
                            }
                        }
                        KIND_NODE_SPAN => match decode_node_span(&frame.payload) {
                            Some(span) => {
                                pending_spans.insert(frame.tag, span);
                            }
                            None => {
                                closed.store(true, Ordering::SeqCst);
                                write.close();
                                return;
                            }
                        },
                        _ => {
                            // ERROR (or protocol violation): poison the link.
                            closed.store(true, Ordering::SeqCst);
                            write.close();
                            return;
                        }
                    }
                }
            })
        };
        Ok(Self {
            shard,
            path: path.to_path_buf(),
            dim,
            write,
            closed,
            load_frame,
            counters,
            stream,
            writer: Some(writer),
            reader: Some(reader),
            _lane: std::marker::PhantomData,
        })
    }

    /// Dial a fresh connection to the same node for a router clone, delivering into
    /// `reply` (the clone's own queue).
    ///
    /// # Errors
    ///
    /// As for [`SocketLink::connect`].
    pub(crate) fn reconnect(&self, reply: Arc<BoundedQueue<SubResponse<T>>>) -> io::Result<Self> {
        Self::connect(
            self.shard,
            &self.path,
            self.dim,
            self.load_frame.clone(),
            self.write.capacity(),
            reply,
            self.counters.clone(),
        )
    }

    /// Whether the connection is known broken (node death, write failure, protocol
    /// error). The fault-tolerant router polls this to fail over without waiting for
    /// a deadline.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Enqueue an encoded frame without blocking — [`PushError::Full`] is the
    /// write-ahead bound's backpressure signal.
    pub(crate) fn try_send(&self, frame: Vec<u8>) -> Result<usize, PushError<Vec<u8>>> {
        if self.is_closed() {
            return Err(PushError::Closed(frame));
        }
        self.write.try_push(frame)
    }

    /// Enqueue an encoded frame, waiting at most `timeout` for write-ahead space.
    pub(crate) fn send_timeout(
        &self,
        frame: Vec<u8>,
        timeout: Duration,
    ) -> Result<usize, PushError<Vec<u8>>> {
        if self.is_closed() {
            return Err(PushError::Closed(frame));
        }
        self.write.push_timeout(frame, timeout)
    }

    /// Enqueue an encoded frame, blocking until there is write-ahead space.
    pub(crate) fn send_blocking(&self, frame: Vec<u8>) -> Result<usize, PushError<Vec<u8>>> {
        if self.is_closed() {
            return Err(PushError::Closed(frame));
        }
        self.write.push(frame)
    }

    /// Ask the node to exit its accept loop (best effort — a dead node can't hear it).
    #[cfg(test)]
    pub(crate) fn send_shutdown(&self) {
        let _ = self.send_blocking(encode_shutdown(self.shard as u32));
    }
}

impl<T> Drop for SocketLink<T> {
    fn drop(&mut self) {
        // Close the write-ahead queue; the writer drains what is already queued
        // (a SHUTDOWN frame, typically) and exits. Only then tear the stream down,
        // which unblocks the reader's pending read.
        self.write.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A per-process-unique socket path under the system temp directory.
pub fn socket_path(label: &str, shard: usize) -> PathBuf {
    std::env::temp_dir().join(format!("imars-{label}-{}-{shard}.sock", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static NEXT_SOCKET: AtomicUsize = AtomicUsize::new(0);

    fn test_socket() -> PathBuf {
        socket_path(
            &format!("test-{}", NEXT_SOCKET.fetch_add(1, Ordering::SeqCst)),
            0,
        )
    }

    fn connect_when_up<T: Lane>(
        shard: usize,
        path: &Path,
        dim: usize,
        load_frame: Arc<Vec<u8>>,
        reply: Arc<BoundedQueue<SubResponse<T>>>,
    ) -> SocketLink<T> {
        let started = std::time::Instant::now();
        loop {
            match SocketLink::connect(
                shard,
                path,
                dim,
                load_frame.clone(),
                16,
                reply.clone(),
                None,
            ) {
                Ok(link) => return link,
                Err(error) => {
                    assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "node never came up: {error}"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        let frame = Frame {
            kind: KIND_FETCH,
            shard: 3,
            tag: 0xDEAD_BEEF_1234,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = frame.encode();
        assert_eq!(
            u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize,
            bytes.len() - 4
        );
        let decoded = Frame::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(decoded, frame);
        // An empty payload is legal.
        let empty = Frame {
            kind: KIND_SHUTDOWN,
            shard: 0,
            tag: 0,
            payload: Vec::new(),
        };
        assert_eq!(Frame::read_from(&mut &empty.encode()[..]).unwrap(), empty);
        // A corrupt length prefix is rejected, not allocated.
        let mut corrupt = empty.encode();
        corrupt[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Frame::read_from(&mut &corrupt[..]).is_err());
        // The node-span codec round-trips its three durations exactly.
        let span = NodeSpan {
            queue_wait_us: 12.5,
            cache_probe_us: 0.75,
            storage_read_us: 301.25,
        };
        let encoded = encode_node_span(4, 77, &span);
        let decoded = Frame::read_from(&mut &encoded[..]).unwrap();
        assert_eq!(decoded.kind, KIND_NODE_SPAN);
        assert_eq!(decoded.tag, 77);
        assert_eq!(decode_node_span(&decoded.payload), Some(span));
        assert_eq!(decode_node_span(&decoded.payload[..16]), None);
    }

    /// `count * (4 + row_bytes)` wraps to zero for these sizes (`4 + row_bytes` is
    /// 2^48, times 2^16 rows), so an unchecked length test would accept a 12-byte
    /// payload and then slice past its end.
    #[test]
    fn a_load_whose_sizes_overflow_is_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&33_554_428u32.to_le_bytes());
        payload.extend_from_slice(&8_388_609u32.to_le_bytes());
        payload.extend_from_slice(&65_536u32.to_le_bytes());
        let error = NodeStorage::decode(&payload).expect_err("overflowing sizes");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn uds_node_serves_exact_rows_and_shuts_down() {
        let path = test_socket();
        let node = {
            let path = path.clone();
            std::thread::spawn(move || run_shard_node(&path))
        };
        let rows: Vec<Vec<f32>> = (0..8)
            .map(|r| (0..4).map(|i| (r * 10 + i) as f32).collect())
            .collect();
        let arena =
            imars_recsys::arena::RowArena::from_rows(rows.iter().map(|r| r.as_slice()), 4).unwrap();
        let resident: Vec<u32> = (0..8).collect();
        let load = Arc::new(encode_load(0, &arena, &resident));
        let reply: Arc<BoundedQueue<SubResponse<f32>>> = Arc::new(BoundedQueue::new(8));
        let link = connect_when_up(0, &path, 4, load.clone(), reply.clone());
        link.send_blocking(encode_fetch(0, 7, &[3, 1, 5], true))
            .unwrap();
        match reply.pop_timeout(Duration::from_secs(10)) {
            Pop::Item(response) => {
                assert_eq!(response.tag, 7);
                assert_eq!(response.shard, 0);
                let mut expected = rows[3].clone();
                expected.extend_from_slice(&rows[1]);
                expected.extend_from_slice(&rows[5]);
                assert_eq!(response.data, expected, "bytes must round-trip exactly");
                let span = response
                    .node_span
                    .expect("a traced fetch ships its server-side span");
                assert!(span.queue_wait_us >= 0.0);
                assert!(span.storage_read_us >= 0.0);
            }
            other => panic!("expected rows, got {other:?}"),
        }
        // A second connection (a router clone) shares the loaded storage. An
        // untraced fetch must not carry a span.
        let reply2: Arc<BoundedQueue<SubResponse<f32>>> = Arc::new(BoundedQueue::new(8));
        let link2 = link.reconnect(reply2.clone()).unwrap();
        link2
            .send_blocking(encode_fetch(0, 9, &[0], false))
            .unwrap();
        match reply2.pop_timeout(Duration::from_secs(10)) {
            Pop::Item(response) => {
                assert_eq!(response.data, rows[0]);
                assert!(response.node_span.is_none(), "untraced fetches stay bare");
            }
            other => panic!("expected rows, got {other:?}"),
        }
        link.send_shutdown();
        drop(link);
        drop(link2);
        node.join().unwrap().unwrap();
        assert!(!path.exists(), "the node removes its socket file");
    }

    #[test]
    fn a_non_resident_row_poisons_the_link_not_the_reply_queue() {
        let path = test_socket();
        let node = {
            let path = path.clone();
            std::thread::spawn(move || run_shard_node(&path))
        };
        let rows: Vec<Vec<i8>> = vec![vec![1, 2], vec![3, 4]];
        let arena =
            imars_recsys::arena::RowArena::from_rows(rows.iter().map(|r| r.as_slice()), 2).unwrap();
        let load = Arc::new(encode_load(1, &arena, &[0]));
        let reply: Arc<BoundedQueue<SubResponse<i8>>> = Arc::new(BoundedQueue::new(4));
        let link = connect_when_up(1, &path, 2, load, reply.clone());
        assert!(!link.is_closed());
        link.send_blocking(encode_fetch(1, 1, &[1], false)).unwrap();
        let started = std::time::Instant::now();
        while !link.is_closed() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "error frame must close the link"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // The reply queue is untouched: healthy shards could still deliver into it.
        assert!(!reply.is_closed());
        assert!(reply.is_empty());
        link.send_shutdown(); // best effort on a poisoned link; the node is told below
        let reply2: Arc<BoundedQueue<SubResponse<i8>>> = Arc::new(BoundedQueue::new(4));
        let link2 = link.reconnect(reply2).unwrap();
        link2.send_shutdown();
        drop(link2);
        drop(link);
        node.join().unwrap().unwrap();
    }
}
