//! Generated inputs and the cached model files.
//!
//! Everything derives from the `--seed` argument: one labelled
//! `uadb_data::synth` draw per seed is split into two training sets (the
//! two served models) and a held-out evaluation pool the load generator
//! samples request rows from. The server only ever receives those rows.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use uadb::UadbConfig;
use uadb_data::synth::{generate, AnomalyType, SynthConfig};
use uadb_data::Dataset;
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_serve::{persist, ServedModel};

/// Feature count of every generated row (the paper's §IV-A input width
/// used throughout this benchmark).
pub const DIM: usize = 32;

/// The teacher every model is distilled from.
pub const TEACHER: DetectorKind = DetectorKind::IForest;

/// Training rows of each model. Serving cost depends only on the model's
/// shape; this is the fewest rows on which the paper-default booster's
/// held-out AUROC stays steady across seeds (at 384 rows it swings from
/// 0.72 to 0.98).
pub const TRAIN_ROWS: usize = 768;

/// Rows of the held-out pool request rows are sampled from.
pub const EVAL_ROWS: usize = 4096;

/// Where models and spans are written, relative to the checkout root.
pub const CACHE_DIR: &str = ".perfbench_cache";

/// Bumped whenever the cached files would change for the same seed.
const CACHE_VERSION: u32 = 3;

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A labelled 32-feature draw: 10% global anomalies around a 2-component
/// Gaussian mixture. The booster's held-out AUROC on this data is stable
/// across seeds (local and clustered anomalies make it swing by ±0.1).
pub fn dataset(name: &str, rows: usize, seed: u64) -> Dataset {
    let cfg = SynthConfig {
        n_inliers: rows - rows / 10,
        n_anomalies: rows / 10,
        dim: DIM,
        n_clusters: 2,
        anomaly_mix: vec![(AnomalyType::Global, 1.0)],
        seed,
        ..SynthConfig::default()
    };
    generate(name, "Synthetic", &cfg)
}

/// The paper-default booster configuration (§IV-A: T = 10 steps of 10
/// epochs, batch 256, Adam 1e-3, hidden [128, 128], 3 CV members).
pub fn paper_config(seed: u64) -> UadbConfig {
    UadbConfig::with_seed(seed)
}

/// The per-seed corpus: two training sets and the evaluation pool.
pub struct Corpus {
    pub train_a: Dataset,
    pub train_b: Dataset,
    pub eval: Matrix,
    pub eval_labels: Vec<f64>,
}

pub fn slice(d: &Dataset, name: &str, lo: usize, hi: usize) -> Dataset {
    let idx: Vec<usize> = (lo..hi).collect();
    Dataset::new(name, d.x.select_rows(&idx), d.labels[lo..hi].to_vec(), d.category)
}

impl Corpus {
    /// Draws the corpus for a seed. The generator shuffles rows, so
    /// contiguous slices are independent samples of one distribution.
    pub fn new(seed: u64) -> Self {
        let n = 2 * TRAIN_ROWS + EVAL_ROWS;
        let all = dataset("perfbench", n, mix(seed, 1));
        let train_a = slice(&all, "perfbench_a", 0, TRAIN_ROWS);
        let train_b = slice(&all, "perfbench_b", TRAIN_ROWS, 2 * TRAIN_ROWS);
        let eval = slice(&all, "perfbench_eval", 2 * TRAIN_ROWS, n);
        Corpus { train_a, train_b, eval_labels: eval.labels_f64(), eval: eval.x }
    }
}

/// The model files one seed's score workloads serve.
pub struct ModelFiles {
    /// Booster `a`, served without a teacher.
    pub a: PathBuf,
    /// Booster `b`, served with its IForest teacher attached.
    pub b: PathBuf,
    pub b_teacher: PathBuf,
}

impl ModelFiles {
    /// The server's `--model` values: `a=FILE` and `b=FILE,TEACHER`.
    pub fn model_flags(&self) -> Vec<String> {
        vec![
            format!("a={}", self.a.display()),
            format!("b={},{}", self.b.display(), self.b_teacher.display()),
        ]
    }
}

/// Returns the seed's model files, training and caching them on first
/// use. Training is deterministic, so a cached file is byte-identical to
/// a fresh one.
pub fn model_files(seed: u64, corpus: &Corpus) -> io::Result<ModelFiles> {
    let dir =
        Path::new(CACHE_DIR).join(format!("models-v{CACHE_VERSION}")).join(format!("seed-{seed}"));
    let files = ModelFiles {
        a: dir.join("a.uadb"),
        b: dir.join("b.uadb"),
        b_teacher: dir.join("b.teacher.uadb"),
    };
    if files.a.exists() && files.b.exists() && files.b_teacher.exists() {
        return Ok(files);
    }
    std::fs::create_dir_all(&dir)?;
    let train = |d: &Dataset, tag| {
        ServedModel::train_with_teacher_workers(d, TEACHER, paper_config(mix(seed, tag)), nproc())
            .map_err(|e| io::Error::other(format!("training {}: {e}", d.name)))
    };
    let (a, _) = train(&corpus.train_a, 2)?;
    let (b, b_teacher) = train(&corpus.train_b, 3)?;
    // Write under temporary names and rename, so an interrupted run never
    // leaves a truncated file that a later run would trust.
    let tmp = |p: &Path| p.with_extension("tmp");
    persist::save_file(&a, tmp(&files.a)).map_err(io::Error::other)?;
    persist::save_file(&b, tmp(&files.b)).map_err(io::Error::other)?;
    persist::save_teacher_file(&b_teacher, tmp(&files.b_teacher)).map_err(io::Error::other)?;
    for p in [&files.a, &files.b, &files.b_teacher] {
        std::fs::rename(tmp(p), p)?;
    }
    Ok(files)
}

/// One request's rows with their ground-truth labels.
pub struct Batch {
    pub x: Arc<Matrix>,
    pub labels: Vec<f64>,
}

/// `count` batches of `rows` rows each, sampled from the evaluation pool
/// with a seeded generator.
pub fn batches(corpus: &Corpus, rows: usize, count: usize, seed: u64) -> Vec<Batch> {
    let mut state = seed;
    let pool = corpus.eval.rows() as u64;
    (0..count)
        .map(|_| {
            let idx: Vec<usize> = (0..rows)
                .map(|_| {
                    state = mix(state, 7);
                    (state % pool) as usize
                })
                .collect();
            Batch {
                x: Arc::new(corpus.eval.select_rows(&idx)),
                labels: idx.iter().map(|&i| corpus.eval_labels[i]).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let d1 = dataset("x", 200, 5);
        let d2 = dataset("x", 200, 5);
        assert_eq!(d1.x.as_slice(), d2.x.as_slice());
        assert_eq!(d1.n_features(), DIM);
        assert_eq!(d1.n_anomalies(), 20);
        assert_ne!(dataset("x", 200, 6).x.as_slice(), d1.x.as_slice());
        assert_ne!(mix(1, 1), mix(1, 2));
    }
}
