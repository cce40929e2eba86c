//! The three serving workloads: their catalogue, traffic, engine configuration and
//! construction, and the reference answers every phase is checked against.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use imars::recsys::dlrm::{Dlrm, DlrmConfig};
use imars::recsys::EmbeddingTable;
use imars::serve::{
    run_shard_node, CachePlacement, CachePolicy, ClusterConfig, ClusterHandle, ClusterOptions,
    Placement, ReplayConfig, ReplayWorkload, ServeConfig, ServeEngine, ServeError, ServePrecision,
    ServeRequest, ServeResponse,
};

/// Width of every item embedding row (and of the DLRM dense input).
pub const ITEM_DIM: usize = 32;
/// Seed of the item catalogue.
pub const CATALOGUE_SEED: u64 = 77;
/// Distinct requests per workload trace. Every phase cycles through them, so one
/// reference replay answers every request any phase submits.
pub const TRACE_QUERIES: usize = 2048;
/// Users the trace draws from.
const NUM_USERS: usize = 4096;
/// Candidates the TCAM filter passes to ranking per query.
const CANDIDATES: usize = 100;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8,192-item fp32 catalogue, Zipf 1.2, history 32, in-process `ShardedTable`
    /// behind a 1,024-row router CLOCK cache: compute-bound on the TCAM search.
    HotFilter,
    /// 2,048-item int8 permuted catalogue, Zipf 0.6, history 128, on a 4-node
    /// in-process cluster with 256 rows of per-shard TinyLFU cache: fetch and ranking.
    ColdCluster,
    /// `ColdCluster` with its shard nodes behind Unix sockets: the transport path.
    UdsCluster,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::HotFilter,
        Workload::ColdCluster,
        Workload::UdsCluster,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotFilter => "hot_filter",
            Workload::ColdCluster => "cold_cluster",
            Workload::UdsCluster => "uds_cluster",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }

    /// Whether the catalogue lives on a shard cluster.
    pub fn clustered(self) -> bool {
        self != Workload::HotFilter
    }

    /// The fixed offered rate of the nominal phase: about a fifth of the workload's
    /// saturation rate on a 2-core host, so that a host running slow for a while still
    /// leaves the runtime well short of a queue.
    pub fn nominal_qps(self) -> f64 {
        match self {
            Workload::HotFilter => 1_200.0,
            Workload::ColdCluster | Workload::UdsCluster => 2_000.0,
        }
    }

    /// The lowest rung of the capacity search's rate ladder: about a fifth of the
    /// workload's capacity at the p99 limit on a 2-core host.
    pub fn ladder_base_qps(self) -> f64 {
        match self {
            Workload::HotFilter => 1_250.0,
            Workload::ColdCluster | Workload::UdsCluster => 2_000.0,
        }
    }

    /// Items in the catalogue.
    pub fn num_items(self) -> usize {
        match self {
            Workload::HotFilter => 8192,
            Workload::ColdCluster | Workload::UdsCluster => 2048,
        }
    }

    /// The engine configuration.
    pub fn serve_config(self) -> ServeConfig {
        let mut config = match self {
            Workload::HotFilter => ServeConfig::paper_serving(1024),
            Workload::ColdCluster | Workload::UdsCluster => ServeConfig::paper_serving(256),
        }
        .expect("the paper serving point is a valid configuration");
        if self.clustered() {
            config.precision = ServePrecision::Int8;
            config.cache_policy = CachePolicy::TinyLfu;
            config.cache_placement = CachePlacement::Shard;
        }
        config
    }

    /// The cluster shape (`None` for the in-process store).
    pub fn cluster_config(self) -> Option<ClusterConfig> {
        self.clustered().then(|| ClusterConfig {
            shards: 4,
            workers_per_shard: 1,
            queue_capacity: 256,
            placement: Placement::Range,
            hot_replicas: 0,
            interconnect: Default::default(),
            resilience: None,
        })
    }

    /// The request trace for `seed`: [`TRACE_QUERIES`] requests with Poisson arrivals
    /// at the nominal rate.
    pub fn trace_config(self, seed: u64, queries: usize) -> ReplayConfig {
        let (zipf_exponent, history_len) = match self {
            Workload::HotFilter => (1.2, 32),
            Workload::ColdCluster | Workload::UdsCluster => (0.6, 128),
        };
        ReplayConfig {
            queries,
            num_users: NUM_USERS,
            num_items: self.num_items(),
            zipf_exponent,
            history_len,
            offered_qps: self.nominal_qps(),
            candidates_per_query: CANDIDATES,
            top_k: 10,
            sparse_cardinalities: model_config().sparse_cardinalities,
            seed,
            item_permutation_seed: self.clustered().then_some(seed ^ 0x5EED),
        }
    }
}

/// The paper's DLRM layer widths, with the pooled item profile as the dense input.
pub fn model_config() -> DlrmConfig {
    DlrmConfig {
        num_dense_features: ITEM_DIM,
        sparse_cardinalities: vec![1000; 26],
        embedding_dim: 32,
        bottom_hidden: vec![256, 128, 32],
        top_hidden: vec![256, 64, 1],
        seed: 42,
    }
}

/// Everything a workload run derives from its seed before any engine exists.
pub struct Fixture {
    /// The workload.
    pub workload: Workload,
    /// The item catalogue.
    pub items: EmbeddingTable,
    /// The request trace every phase draws its requests from.
    pub trace: ReplayWorkload,
}

impl Fixture {
    /// Generate the catalogue and the trace of `queries` requests for `seed`.
    ///
    /// # Errors
    ///
    /// Propagates invalid-configuration errors from the generators.
    pub fn new(workload: Workload, seed: u64, queries: usize) -> Result<Self, ServeError> {
        let items = EmbeddingTable::new(workload.num_items(), ITEM_DIM, CATALOGUE_SEED).map_err(
            |error| ServeError::InvalidConfig {
                reason: error.to_string(),
            },
        )?;
        let trace = ReplayWorkload::generate(&workload.trace_config(seed, queries))?;
        Ok(Self {
            workload,
            items,
            trace,
        })
    }

    /// The trace request answering phase request `id`.
    pub fn request(&self, id: u64) -> &ServeRequest {
        let requests = self.trace.requests();
        &requests[(id % requests.len() as u64) as usize]
    }

    /// A fresh in-process engine over the catalogue (the answer oracle).
    ///
    /// # Errors
    ///
    /// Propagates engine construction errors.
    pub fn in_process_engine(&self) -> Result<ServeEngine, ServeError> {
        ServeEngine::new(model(), &self.items, self.workload.serve_config())
    }
}

fn model() -> Dlrm {
    Dlrm::new(model_config()).expect("the benchmark model configuration is valid")
}

/// The reference answer of every trace request, by trace position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    answers: Vec<(u32, usize)>,
}

impl Reference {
    /// Replay the fixture's trace on a fresh in-process engine.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn compute(fixture: &Fixture) -> Result<Self, ServeError> {
        let outcome = fixture.in_process_engine()?.replay(&fixture.trace)?;
        let mut answers = vec![None; fixture.trace.len()];
        for response in &outcome.responses {
            answers[response.id as usize] = Some((response.score.to_bits(), response.candidates));
        }
        let answers = answers
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| ServeError::InvalidConfig {
                reason: "the reference replay left a request unanswered".to_string(),
            })?;
        Ok(Self { answers })
    }

    /// Whether `response` (to phase request `response.id`) is the reference answer.
    pub fn matches(&self, response: &ServeResponse) -> bool {
        let (score_bits, candidates) =
            self.answers[(response.id % self.answers.len() as u64) as usize];
        response.score.to_bits() == score_bits && response.candidates == candidates
    }

    /// Count the wrong answers among `responses`.
    pub fn wrong(&self, responses: &[ServeResponse]) -> u64 {
        responses.iter().filter(|r| !self.matches(r)).count() as u64
    }
}

/// A constructed serving engine and whatever it runs on.
pub struct Served {
    /// The engine the runtime clones into its workers.
    pub engine: ServeEngine,
    cluster: Option<ClusterHandle>,
    nodes: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    /// Build the workload's engine. `socket_dir` holds the shard-node sockets of the
    /// UDS workload; `tag` keeps the socket names of successive builds apart.
    ///
    /// # Errors
    ///
    /// Propagates engine and cluster construction errors.
    pub fn build(fixture: &Fixture, socket_dir: &Path, tag: usize) -> Result<Self, ServeError> {
        let workload = fixture.workload;
        let Some(cluster) = workload.cluster_config() else {
            return Ok(Self {
                engine: fixture.in_process_engine()?,
                cluster: None,
                nodes: Vec::new(),
            });
        };
        if workload == Workload::ColdCluster {
            let (engine, handle) = ServeEngine::new_clustered(
                model(),
                &fixture.items,
                workload.serve_config(),
                &cluster,
                None,
            )?;
            return Ok(Self {
                engine,
                cluster: Some(handle),
                nodes: Vec::new(),
            });
        }
        let sockets: Vec<PathBuf> = (0..cluster.shards)
            .map(|shard| socket_dir.join(format!("sb-{}-{tag}-{shard}.sock", std::process::id())))
            .collect();
        let nodes: Vec<_> = sockets
            .iter()
            .map(|path| {
                let path = path.clone();
                std::thread::spawn(move || run_shard_node(&path))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !sockets.iter().all(|path| path.exists()) {
            if Instant::now() > deadline || nodes.iter().any(JoinHandle::is_finished) {
                return Err(ServeError::InvalidConfig {
                    reason: format!(
                        "shard-node sockets in {} never came up",
                        socket_dir.display()
                    ),
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let (engine, handle) = ServeEngine::new_clustered_sockets(
            model(),
            &fixture.items,
            workload.serve_config(),
            &cluster,
            None,
            &sockets,
            ClusterOptions::default(),
        )?;
        Ok(Self {
            engine,
            cluster: Some(handle),
            nodes,
        })
    }

    /// Hang up the engine, stop the cluster and join every shard-node thread.
    ///
    /// # Errors
    ///
    /// Reports a cluster or shard node that did not stop cleanly.
    pub fn shutdown(self) -> Result<(), ServeError> {
        drop(self.engine);
        if let Some(handle) = self.cluster {
            handle.shutdown()?;
        }
        for node in self.nodes {
            match node.join() {
                Ok(Ok(())) => {}
                _ => {
                    return Err(ServeError::InvalidConfig {
                        reason: "a shard node did not exit cleanly".to_string(),
                    })
                }
            }
        }
        Ok(())
    }
}
