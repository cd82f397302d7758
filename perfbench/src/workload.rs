//! The benchmark workloads: which graphs a job enumerates, with which
//! driver, on which machine.
//!
//! Every workload is a closed loop with one client: the next job starts only
//! after the previous one returned. Job `i` of a run enumerates a fresh graph
//! whose generator seed (and driver seed) is derived from the run's seed and
//! `i` alone, so a seed fixes the whole job stream.

use emsim::{BackendKind, EmConfig};
use graphgen::{generators, Graph};
use trienum::Algorithm;

/// Which of the paper's drivers a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Section 2: the cache-aware randomized colouring algorithm.
    CacheAware,
    /// Section 3: the cache-oblivious randomized refinement algorithm.
    CacheOblivious,
    /// Section 4: the deterministic cache-aware algorithm.
    Deterministic,
}

/// The random-graph family a workload draws its jobs from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Erdős–Rényi `G(n, m)`.
    ErdosRenyi,
    /// Chung–Lu with a power-law expected degree sequence of exponent `gamma`.
    PowerLaw {
        /// The power-law exponent.
        gamma: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists (the layers it stresses).
    pub why: &'static str,
    /// The driver every job runs.
    pub driver: Driver,
    /// The graph family every job draws from.
    pub family: Family,
    /// Edges requested from the generator per job.
    pub edges: usize,
    /// Vertices of every generated graph.
    pub vertices: usize,
    /// Internal memory `M` in words.
    pub mem_words: usize,
    /// Block size `B` in words.
    pub block_words: usize,
    /// Data plane of every machine a job runs on.
    pub backend: BackendKind,
    /// Worker count `P`; above 1 the job runs through the sharded entry point.
    pub workers: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "er-oblivious",
        why: "cache-oblivious driver, Erdos-Renyi avg degree 16, in-memory, P=1: subproblem \
              overhead, partition, oblivious sort, RefinedColoring; >=100 jobs/run, job_s.tail=p90",
        driver: Driver::CacheOblivious,
        family: Family::ErdosRenyi,
        edges: 2_048,
        vertices: 256,
        mem_words: 512,
        block_words: 16,
        backend: BackendKind::InMemory,
        workers: 1,
    },
    Workload {
        name: "powerlaw-aware",
        why: "cache-aware randomized driver, Chung-Lu gamma=2.1, E/M=64, in-memory, P=1: \
              simulator access path, multi-pass sort, Lemma 2 step 3; >=100 jobs/run, job_s.tail=p90",
        driver: Driver::CacheAware,
        family: Family::PowerLaw { gamma: 2.1 },
        edges: 8_192,
        vertices: 2_048,
        mem_words: 128,
        block_words: 8,
        backend: BackendKind::InMemory,
        workers: 1,
    },
    Workload {
        name: "powerlaw-aware-disk-p2",
        why: "powerlaw-aware jobs sharded over P=2 workers on the real-disk plane: buffer \
              pool, disk device, work-unit scheduler, k-way merge epilogue; >=100 jobs/run, job_s.tail=p90",
        driver: Driver::CacheAware,
        family: Family::PowerLaw { gamma: 2.1 },
        edges: 8_192,
        vertices: 2_048,
        mem_words: 128,
        block_words: 8,
        backend: BackendKind::Disk,
        workers: 2,
    },
    Workload {
        name: "er-derand",
        why: "deterministic cache-aware driver, Erdos-Renyi: greedy candidate search \
              (potential, BitFunctionFamily), which no other workload runs; >=100 jobs/run, job_s.tail=p90",
        driver: Driver::Deterministic,
        family: Family::ErdosRenyi,
        edges: 2_048,
        vertices: 256,
        mem_words: 256,
        block_words: 16,
        backend: BackendKind::InMemory,
        workers: 1,
    },
];

/// SplitMix64 finaliser: a bijective mix giving well-spread job seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Workload {
    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The machine configuration of every job.
    pub fn config(&self) -> EmConfig {
        EmConfig::new(self.mem_words, self.block_words)
    }

    /// The same workload with `edges` edges per job, the same average degree
    /// and the same `E/M` (down to a tall cache, `M = B²`). The tests run
    /// scaled-down copies.
    pub fn scaled(&self, edges: usize) -> Workload {
        Workload {
            edges,
            vertices: (self.vertices * edges / self.edges).max(16),
            mem_words: (self.mem_words * edges / self.edges).max(self.block_words.pow(2)),
            ..*self
        }
    }

    /// The seed of job `job` in the stream of run seed `seed`.
    pub fn job_seed(seed: u64, job: u64) -> u64 {
        splitmix64(seed ^ splitmix64(job))
    }

    /// The input graph of the job with seed `job_seed`.
    pub fn generate(&self, job_seed: u64) -> Graph {
        match self.family {
            Family::ErdosRenyi => generators::erdos_renyi(self.vertices, self.edges, job_seed),
            Family::PowerLaw { gamma } => {
                generators::chung_lu_power_law(self.vertices, self.edges, gamma, job_seed)
            }
        }
    }

    /// The driver call of the job with seed `job_seed`.
    pub fn algorithm(&self, job_seed: u64) -> Algorithm {
        match self.driver {
            Driver::CacheAware => Algorithm::CacheAwareRandomized { seed: job_seed },
            Driver::CacheOblivious => Algorithm::CacheObliviousRandomized { seed: job_seed },
            Driver::Deterministic => Algorithm::DeterministicCacheAware {
                family_seed: job_seed,
                candidates: None,
            },
        }
    }
}
