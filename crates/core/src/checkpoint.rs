//! Crash-safe checkpoints: a prefix of the deterministic work-unit stream.
//!
//! Every paper driver numbers its independent pieces — the step-1
//! high-degree vertices and step-3 pivot pairs of the cache-aware drivers,
//! the top-of-tree subtrees, leaves and high-degree passes of the
//! cache-oblivious refinement — as one unit stream whose numbering depends
//! only on the input, the algorithm and its seed(s), and `M` (see
//! [`crate::workunit`]). A checkpoint therefore needs no driver state at
//! all: it records *how many units are done* and how many triangles those
//! units emitted (the sink's high-water mark). A resumed run replays the same
//! driver with every unit below `units_done` disowned — they take the
//! non-owner path sharded workers already take — and delivers exactly the
//! remainder.
//!
//! The driver writes a checkpoint at a unit claim that comes at least
//! `interval_io` charged I/Os after the previous one, and only then commits
//! the sink, so the persisted high-water mark never runs ahead of the
//! durably delivered triangles.
//!
//! Checkpoints are one flat JSON object (no serde in the dependency tree)
//! written **atomically**: the bytes go to a temporary file which is synced
//! and renamed over the target, and the directory is synced after the
//! rename, so a crash leaves either the previous checkpoint or the new one,
//! never a truncated hybrid. Durable state lives on the *host* filesystem —
//! it models a separate durable store and is not charged to the simulated
//! machine.

use std::io::Write;
use std::path::{Path, PathBuf};

use emsim::EmConfig;

use crate::Algorithm;

/// When and where a recoverable run writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Target file of the (atomically replaced) checkpoint.
    pub path: PathBuf,
    /// Write a checkpoint at the first unit claim after this many simulated
    /// I/Os have accumulated since the previous checkpoint.
    pub interval_io: u64,
}

/// A resumable snapshot of a run: its identity plus the done prefix of its
/// work-unit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Format version (current: [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The algorithm and its seed(s); one of the paper's three drivers.
    pub algorithm: Algorithm,
    /// Edge count of the input.
    pub edges: usize,
    /// Internal memory `M` in words (the cache-aware unit streams depend on
    /// it).
    pub mem_words: usize,
    /// Block size `B` in words.
    pub block_words: usize,
    /// Units `0..units_done` are complete; a resume disowns them.
    pub units_done: u64,
    /// Triangles durably committed by those units — the sink's high-water
    /// mark. Resume restarts emission numbering here.
    pub hwm: u64,
}

/// Current checkpoint format version (version 1 was the removed DFS-frontier
/// format of the cache-oblivious driver).
pub const CHECKPOINT_VERSION: u32 = 2;

impl Checkpoint {
    /// The checkpoint of `algorithm` on `edges` edges under `cfg` before any
    /// unit is done.
    pub(crate) fn start(algorithm: Algorithm, edges: usize, cfg: EmConfig) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            algorithm,
            edges,
            mem_words: cfg.mem_words,
            block_words: cfg.block_words,
            units_done: 0,
            hwm: 0,
        }
    }

    /// Checks that this checkpoint was taken by a run of `algorithm` on
    /// `edges` edges under `cfg`; a unit prefix of any other run means
    /// nothing.
    ///
    /// # Errors
    ///
    /// Names the first parameter that differs.
    pub(crate) fn check_run(
        &self,
        algorithm: Algorithm,
        edges: usize,
        cfg: EmConfig,
    ) -> Result<(), String> {
        let here = Checkpoint {
            units_done: self.units_done,
            hwm: self.hwm,
            ..Checkpoint::start(algorithm, edges, cfg)
        };
        if *self == here {
            return Ok(());
        }
        let differs = if self.algorithm != algorithm {
            format!("algorithm {:?}, this run {algorithm:?}", self.algorithm)
        } else if self.edges != edges {
            format!("{} edges, this run {edges}", self.edges)
        } else {
            format!(
                "M = {}, B = {}, this run M = {}, B = {}",
                self.mem_words, self.block_words, cfg.mem_words, cfg.block_words
            )
        };
        Err(format!("checkpoint is from a different run: {differs}"))
    }

    /// Serialises the checkpoint as one flat JSON object.
    pub fn to_json(&self) -> String {
        let (seed, candidates) = match self.algorithm {
            Algorithm::CacheAwareRandomized { seed }
            | Algorithm::CacheObliviousRandomized { seed } => (seed, None),
            Algorithm::DeterministicCacheAware {
                family_seed,
                candidates,
            } => (family_seed, candidates),
            Algorithm::HuTaoChung | Algorithm::SortBased | Algorithm::BlockNestedLoop => (0, None),
        };
        let candidates = candidates.map_or(String::new(), |c| format!("  \"candidates\": {c},\n"));
        format!(
            "{{\n  \"version\": {},\n  \"algorithm\": \"{}\",\n  \"seed\": {seed},\n{candidates}  \
             \"edges\": {},\n  \"mem_words\": {},\n  \"block_words\": {},\n  \
             \"units_done\": {},\n  \"hwm\": {}\n}}\n",
            self.version,
            self.algorithm.name(),
            self.edges,
            self.mem_words,
            self.block_words,
            self.units_done,
            self.hwm
        )
    }

    /// Parses a checkpoint from its JSON serialisation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or structural problem
    /// (truncated file, wrong version, missing field, wrong type, an
    /// algorithm without work units).
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let fields = parse_flat_object(text)?;
        let version: u32 = number(&fields, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let seed = number(&fields, "seed")?;
        let algorithm = match string(&fields, "algorithm")? {
            "cache-aware-randomized" => Algorithm::CacheAwareRandomized { seed },
            "cache-oblivious" => Algorithm::CacheObliviousRandomized { seed },
            "deterministic-cache-aware" => Algorithm::DeterministicCacheAware {
                family_seed: seed,
                candidates: match lookup(&fields, "candidates") {
                    Some(_) => Some(number(&fields, "candidates")?),
                    None => None,
                },
            },
            other => return Err(format!("algorithm '{other}' has no work units to resume")),
        };
        Ok(Checkpoint {
            version,
            algorithm,
            edges: number(&fields, "edges")?,
            mem_words: number(&fields, "mem_words")?,
            block_words: number(&fields, "block_words")?,
            units_done: number(&fields, "units_done")?,
            hwm: number(&fields, "hwm")?,
        })
    }

    /// Writes the checkpoint atomically (see [`atomic_write`]). A crash
    /// mid-write leaves the previous checkpoint intact.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, self.to_json().as_bytes())
    }

    /// Loads and parses a checkpoint file.
    pub fn load(path: &Path) -> std::io::Result<Checkpoint> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Splits `{"key": value, ...}` into its fields. Values are unsigned
/// integers or strings without commas, which is all the format writes.
fn parse_flat_object(text: &str) -> Result<Vec<(&str, &str)>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("a checkpoint is one JSON object (truncated file?)")?;
    // emlint: allow(unleased, reason = "host-side durable-state deserialisation, not simulated-machine memory")
    body.split(',')
        .map(|field| {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("malformed field '{}'", field.trim()))?;
            let key = unquote(key.trim()).ok_or_else(|| format!("malformed key {}", key.trim()))?;
            Ok((key, value.trim()))
        })
        .collect()
}

fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"')?.strip_suffix('"')
}

fn lookup<'t>(fields: &[(&str, &'t str)], key: &str) -> Option<&'t str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn string<'t>(fields: &[(&str, &'t str)], key: &str) -> Result<&'t str, String> {
    let value = lookup(fields, key).ok_or_else(|| format!("missing field '{key}'"))?;
    unquote(value).ok_or_else(|| format!("field '{key}': expected a string"))
}

fn number<T: std::str::FromStr>(fields: &[(&str, &str)], key: &str) -> Result<T, String> {
    let value = lookup(fields, key).ok_or_else(|| format!("missing field '{key}'"))?;
    value
        .parse()
        .map_err(|_| format!("field '{key}': expected an unsigned integer, got '{value}'"))
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// flush and sync, rename, then (on unix) sync the directory so the rename
/// itself survives a power loss. Shared by the checkpoint writer and the
/// experiment-record writer so no crashed run can leave a truncated
/// artifact.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Without this the rename may still sit in the directory's page cache:
    // a power loss would bring back the previous checkpoint while the sink
    // has already committed past its high-water mark.
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            units_done: 17,
            hwm: 123,
            ..Checkpoint::start(
                Algorithm::CacheObliviousRandomized { seed: 7 },
                2_000,
                EmConfig::new(1 << 10, 32),
            )
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let cfg = EmConfig::new(512, 16);
        let derand = |candidates| Checkpoint {
            units_done: 4,
            hwm: 9,
            ..Checkpoint::start(
                Algorithm::DeterministicCacheAware {
                    family_seed: u64::MAX,
                    candidates,
                },
                900,
                cfg,
            )
        };
        for c in [sample(), derand(Some(16)), derand(None)] {
            assert_eq!(Checkpoint::parse(&c.to_json()).unwrap(), c);
        }
    }

    /// A fresh run's checkpoint — no unit done, nothing committed — is the
    /// empty progress record (the frontier and leaf log of the removed
    /// version-1 format); it must round-trip like any other.
    #[test]
    fn empty_frontier_and_leaves_round_trip() {
        let cfg = EmConfig::new(512, 16);
        let fresh = Checkpoint::start(Algorithm::CacheAwareRandomized { seed: 0 }, 3, cfg);
        assert_eq!((fresh.units_done, fresh.hwm), (0, 0));
        assert_eq!(Checkpoint::parse(&fresh.to_json()).unwrap(), fresh);
    }

    #[test]
    fn truncated_and_malformed_inputs_are_rejected_with_reasons() {
        let json = sample().to_json();
        let truncated = &json[..json.len() / 2];
        assert!(Checkpoint::parse(truncated).is_err());
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("{\"version\" 2}")
            .unwrap_err()
            .contains("malformed"));
        assert!(
            Checkpoint::parse(&json.replace("\"hwm\": 123", "\"hwm\": -1"))
                .unwrap_err()
                .contains("hwm")
        );
        assert!(Checkpoint::parse("{\"version\": 2}")
            .unwrap_err()
            .contains("missing field"));
        assert!(
            Checkpoint::parse(&json.replace("  \"units_done\": 17,\n", ""))
                .unwrap_err()
                .contains("missing field 'units_done'")
        );
        let wrong_version = json.replace("\"version\": 2", "\"version\": 1");
        assert!(Checkpoint::parse(&wrong_version)
            .unwrap_err()
            .contains("version"));
        let baseline = json.replace("\"cache-oblivious\"", "\"hu-tao-chung\"");
        assert!(Checkpoint::parse(&baseline)
            .unwrap_err()
            .contains("no work units"));
    }

    #[test]
    fn a_checkpoint_from_a_different_run_is_rejected() {
        let ck = sample();
        let cfg = EmConfig::new(1 << 10, 32);
        let alg = Algorithm::CacheObliviousRandomized { seed: 7 };
        assert_eq!(ck.check_run(alg, 2_000, cfg), Ok(()));
        let other_seed = Algorithm::CacheObliviousRandomized { seed: 8 };
        let other_alg = Algorithm::CacheAwareRandomized { seed: 7 };
        for (alg, edges, cfg, reason) in [
            (other_seed, 2_000, cfg, "algorithm"),
            (other_alg, 2_000, cfg, "algorithm"),
            (alg, 1_999, cfg, "edges"),
            (alg, 2_000, EmConfig::new(1 << 11, 32), "M = "),
            (alg, 2_000, EmConfig::new(1 << 10, 64), "B = "),
        ] {
            let err = ck.check_run(alg, edges, cfg).unwrap_err();
            assert!(err.contains(reason), "{err}");
        }
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("trienum-checkpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let c = sample();
        c.write_atomic(&path).unwrap();
        let mut newer = c.clone();
        newer.hwm = 999;
        newer.write_atomic(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, newer);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !PathBuf::from(tmp).exists(),
            "the temp file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_of_a_missing_file_is_an_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/trienum/ckpt.json")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
