//! Named model registry: N servable boosters behind one server.
//!
//! ADBench's core finding — and UADB's premise — is that no single
//! detector wins everywhere, so a production deployment holds one
//! trained booster per dataset/teacher pair. [`ModelRegistry`] maps
//! URL-safe names to entries that own all per-model state: the
//! [`ServedModel`] behind its own [`ScoringPool`], a live drift window
//! ([`ModelDrift`]), and the name's stats slot ([`ModelStats`]), whose
//! series register on the registry's own exposition — two registries
//! serving one name never share counts or windows.
//!
//! Every mutation — insert, **hot reload**, teacher attach/detach,
//! drift reset — swaps in a new `Arc<Entry>` under the one lock, so a
//! swap always starts a fresh drift window; the stats slot, created on
//! a name's first insert, is carried over. In-flight requests hold the
//! pool and window they started on and finish against the old weights.
//!
//! Lock discipline: the lock is held only to clone or swap an `Arc`
//! (and to register a new name's series) — never across model loading,
//! pool construction or scoring — so a reload cannot stall requests.

use crate::model::ServedModel;
use crate::persist::{self, PersistError};
use crate::pool::{PoolConfig, ScoringPool};
use crate::telemetry::{ModelDrift, ModelStats};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use uadb_telemetry::{log::logger, Level, Registry};

/// Longest accepted model name; names route in URLs, so they stay short.
pub const MAX_NAME_LEN: usize = 64;

/// One served name: the model's pool and provenance plus the per-model
/// state it owns. Immutable once published; mutations swap the `Arc`.
#[derive(Clone)]
pub(crate) struct Entry {
    pub(crate) pool: Arc<ScoringPool>,
    /// Where the model was loaded from, when it came from a file;
    /// reload without an explicit path re-reads this.
    source: Option<PathBuf>,
    /// Where the model's teacher snapshot was loaded from, if the entry
    /// serves one; reload re-reads this alongside `source`.
    teacher_source: Option<PathBuf>,
    pool_cfg: PoolConfig,
    /// The live drift window of exactly this entry's weights.
    pub(crate) drift: Arc<ModelDrift>,
    /// The name's stats slot, shared by every entry the name has had.
    pub(crate) stats: Arc<ModelStats>,
}

/// Everything behind the registry's one lock.
#[derive(Default)]
struct State {
    entries: BTreeMap<String, Arc<Entry>>,
    default: Option<String>,
}

/// A concurrent name → entry map with a designated default.
#[derive(Default)]
pub struct ModelRegistry {
    state: RwLock<State>,
    /// The per-model metric families of this registry's entries.
    telemetry: Registry,
}

/// Errors from registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// The name is empty, too long, or contains non-URL-safe characters.
    InvalidName(String),
    /// No model is registered under this name.
    UnknownModel(String),
    /// Reload was requested for a model that was not loaded from a file
    /// and no replacement path was given.
    NoSourcePath(String),
    /// Teacher detach was requested for a model that has no teacher
    /// snapshot attached.
    NoTeacher(String),
    /// The entry was replaced (reload, re-insert, drift reset) while a
    /// teacher attach/detach was preparing its swap; the operation was
    /// abandoned rather than re-publishing stale state. Retry.
    ConcurrentSwap(String),
    /// Loading the model file failed.
    Load(PersistError),
    /// The teacher snapshot's feature width differs from its booster's;
    /// serving the pair would fail every `?variant=teacher` request.
    TeacherMismatch {
        /// The booster's feature width.
        expected: usize,
        /// The teacher snapshot's feature width.
        got: usize,
    },
    /// The teacher snapshot holds a different detector kind than the
    /// booster was distilled from; pairing them would serve a
    /// meaningless A/B comparison.
    TeacherKindMismatch {
        /// The detector kind the booster's metadata names.
        expected: String,
        /// The snapshot's actual detector kind.
        got: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidName(name) => write!(
                f,
                "invalid model name `{name}` (want 1-{MAX_NAME_LEN} chars of [A-Za-z0-9._-])"
            ),
            RegistryError::UnknownModel(name) => write!(f, "no model named `{name}`"),
            RegistryError::NoSourcePath(name) => {
                write!(f, "model `{name}` has no source file to reload from")
            }
            RegistryError::NoTeacher(name) => {
                write!(f, "model `{name}` has no teacher snapshot attached")
            }
            RegistryError::ConcurrentSwap(name) => {
                write!(f, "model `{name}` was replaced concurrently; retry the operation")
            }
            RegistryError::Load(e) => write!(f, "loading model file: {e}"),
            RegistryError::TeacherMismatch { expected, got } => {
                write!(f, "teacher snapshot has {got} features, its booster expects {expected}")
            }
            RegistryError::TeacherKindMismatch { expected, got } => {
                write!(f, "teacher snapshot is a {got}, the booster was distilled from {expected}")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for RegistryError {
    fn from(e: PersistError) -> Self {
        RegistryError::Load(e)
    }
}

/// Loads a booster file and, when given, attaches its teacher snapshot.
/// The pair must actually belong together: the snapshot's detector kind
/// must be the one the booster's metadata says it was distilled from,
/// and the feature widths must agree — a teacher from an unrelated
/// model would otherwise serve a silently meaningless A/B.
fn load_pair(path: &Path, teacher: Option<&Path>) -> Result<ServedModel, RegistryError> {
    let mut model = persist::load_file(path)?;
    if let Some(tp) = teacher {
        attach_validated(&mut model, tp)?;
    }
    Ok(model)
}

/// Loads a teacher snapshot file and attaches it to `model` after the
/// shared validation: the snapshot's detector kind must be the one the
/// booster's metadata says it was distilled from, and the feature
/// widths must agree. Used by startup loading, hot reload, and the
/// runtime `POST /admin/teacher/{name}` attach alike.
fn attach_validated(model: &mut ServedModel, teacher_path: &Path) -> Result<(), RegistryError> {
    let t = persist::load_teacher_file(teacher_path)?;
    if t.kind().name() != model.meta().teacher {
        return Err(RegistryError::TeacherKindMismatch {
            expected: model.meta().teacher.clone(),
            got: t.kind().name().to_string(),
        });
    }
    let (expected, got) = (model.input_dim(), t.input_dim());
    model.attach_teacher(Arc::new(t)).map_err(|_| RegistryError::TeacherMismatch { expected, got })
}

/// Whether `name` can route in a URL path segment: non-empty, at most
/// [`MAX_NAME_LEN`] bytes, only ASCII alphanumerics and `.`/`_`/`-`.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl ModelRegistry {
    /// An empty registry. The first inserted model becomes the default
    /// unless [`ModelRegistry::set_default`] chooses otherwise.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, State> {
        // Lock poisoning would mean a panic while *swapping an Arc*,
        // which cannot leave the map inconsistent; serving on is safe.
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or replaces) a model under `name`, spinning up its
    /// scoring pool. In-memory models have no source path and cannot be
    /// reloaded without one.
    pub fn insert(
        &self,
        name: &str,
        model: Arc<ServedModel>,
        pool_cfg: PoolConfig,
    ) -> Result<(), RegistryError> {
        self.insert_entry(name, model, None, None, pool_cfg)
    }

    /// Loads a model file and registers it under `name`, remembering the
    /// path so the entry can be hot-reloaded later.
    pub fn insert_from_file(
        &self,
        name: &str,
        path: impl AsRef<Path>,
        pool_cfg: PoolConfig,
    ) -> Result<(), RegistryError> {
        self.insert_from_files(name, path, None::<&Path>, pool_cfg)
    }

    /// Loads a booster file — and, when given, its frozen teacher
    /// snapshot — and registers the pair under `name`, remembering both
    /// paths for hot reload. A teacher whose feature width differs from
    /// the booster's is rejected with [`RegistryError::TeacherMismatch`]
    /// at load time, before any pool exists to crash.
    pub fn insert_from_files(
        &self,
        name: &str,
        path: impl AsRef<Path>,
        teacher_path: Option<impl AsRef<Path>>,
        pool_cfg: PoolConfig,
    ) -> Result<(), RegistryError> {
        let path = path.as_ref();
        let teacher_path = teacher_path.map(|p| p.as_ref().to_path_buf());
        let model = Arc::new(load_pair(path, teacher_path.as_deref())?);
        self.insert_entry(name, model, Some(path.to_path_buf()), teacher_path, pool_cfg)
    }

    fn insert_entry(
        &self,
        name: &str,
        model: Arc<ServedModel>,
        source: Option<PathBuf>,
        teacher_source: Option<PathBuf>,
        pool_cfg: PoolConfig,
    ) -> Result<(), RegistryError> {
        if !is_valid_name(name) {
            return Err(RegistryError::InvalidName(name.to_string()));
        }
        let teacher = if model.teacher().is_some() { "yes" } else { "no" };
        logger().log(
            Level::Info,
            "registry",
            "model registered",
            &[("model", name), ("teacher", teacher)],
        );
        self.publish(name, None, model, source, teacher_source, pool_cfg)
    }

    /// Attaches (or replaces) a frozen teacher snapshot on a live
    /// entry, loaded from `path`, with the same kind/width validation
    /// as startup. Like [`ModelRegistry::reload`], the replacement pool
    /// is fully built before the swap: requests in flight keep their
    /// old pool, a failed load leaves the entry untouched, and the new
    /// teacher path is remembered so a later reload re-reads it.
    /// Unlike a reload, the swapped-in bundle is *derived from* the
    /// snapshotted entry, so the swap is conditional: if a concurrent
    /// reload replaced the entry in between, the attach aborts with
    /// [`RegistryError::ConcurrentSwap`] instead of silently
    /// re-publishing the pre-reload weights.
    pub fn attach_teacher(&self, name: &str, path: &Path) -> Result<(), RegistryError> {
        let seen = self.entry(name)?;
        // Clone the bundle outside every lock: the original keeps
        // serving until the swap below.
        let mut new_model = (**seen.pool.model()).clone();
        attach_validated(&mut new_model, path)?;
        let (source, pool_cfg) = (seen.source.clone(), seen.pool_cfg.clone());
        let teacher = Some(path.to_path_buf());
        self.publish(name, Some(&seen), Arc::new(new_model), source, teacher, pool_cfg)?;
        logger().log(Level::Info, "registry", "teacher attached", &[("model", name)]);
        Ok(())
    }

    /// Detaches the teacher snapshot from a live entry; afterwards
    /// `?variant=teacher|both` requests 404 again. In-flight requests
    /// finish against the old pool (which still holds the teacher).
    /// Conditional on the entry not having been replaced concurrently,
    /// like [`ModelRegistry::attach_teacher`].
    pub fn detach_teacher(&self, name: &str) -> Result<(), RegistryError> {
        let seen = self.entry(name)?;
        if seen.pool.model().teacher().is_none() {
            return Err(RegistryError::NoTeacher(name.to_string()));
        }
        let mut new_model = (**seen.pool.model()).clone();
        new_model.detach_teacher();
        let (source, pool_cfg) = (seen.source.clone(), seen.pool_cfg.clone());
        self.publish(name, Some(&seen), Arc::new(new_model), source, None, pool_cfg)?;
        logger().log(Level::Info, "registry", "teacher detached", &[("model", name)]);
        Ok(())
    }

    /// Atomically replaces `name`'s model with one freshly loaded from
    /// `path` (or, when `path` is `None`, from the entry's remembered
    /// source file). The new pool is built before the swap and the old
    /// pool's `Arc` is only released, so requests scoring against the old
    /// model finish undisturbed and a failed load leaves the entry
    /// untouched.
    pub fn reload(&self, name: &str, path: Option<&Path>) -> Result<(), RegistryError> {
        let current = self.entry(name)?;
        let resolved = match path {
            Some(p) => p.to_path_buf(),
            None => current
                .source
                .clone()
                .ok_or_else(|| RegistryError::NoSourcePath(name.to_string()))?,
        };
        // Load and spin up the replacement outside any lock; a teacher
        // snapshot, when the entry serves one, is re-read alongside.
        let teacher_source = current.teacher_source.clone();
        let model = Arc::new(load_pair(&resolved, teacher_source.as_deref())?);
        // The entry may have been replaced concurrently; last write
        // wins, exactly as two concurrent reloads would.
        let pool_cfg = current.pool_cfg.clone();
        self.publish(name, None, model, Some(resolved), teacher_source, pool_cfg)?;
        logger().log(Level::Info, "registry", "model reloaded", &[("model", name)]);
        Ok(())
    }

    /// The live entry under `name`; its `Arc` doubles as the identity
    /// witness for a conditional swap.
    fn entry(&self, name: &str) -> Result<Arc<Entry>, RegistryError> {
        self.read()
            .entries
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))
    }

    /// Builds `model`'s pool and a fresh drift window outside the lock,
    /// then swaps the new entry in under `name`, carrying over the
    /// name's stats slot (or registering one on the name's first
    /// insert). With `seen` the swap is conditional: the new bundle was
    /// derived from `seen`'s model, so if anything replaced that entry
    /// in the meantime (reload, re-insert), applying the swap would
    /// resurrect stale weights — abort with
    /// [`RegistryError::ConcurrentSwap`] and leave the live entry as is.
    fn publish(
        &self,
        name: &str,
        seen: Option<&Arc<Entry>>,
        model: Arc<ServedModel>,
        source: Option<PathBuf>,
        teacher_source: Option<PathBuf>,
        pool_cfg: PoolConfig,
    ) -> Result<(), RegistryError> {
        let s = model.standardizer();
        let drift = Arc::new(ModelDrift::new(name, s.means(), s.stds(), model.baseline()));
        let pool = Arc::new(ScoringPool::new(model, pool_cfg.clone()));
        let mut state = self.write();
        let current = state.entries.get(name);
        if seen.is_some_and(|seen| !current.is_some_and(|c| Arc::ptr_eq(c, seen))) {
            return Err(RegistryError::ConcurrentSwap(name.to_string()));
        }
        let stats = match current {
            Some(c) => Arc::clone(&c.stats),
            None => Arc::new(ModelStats::register(&self.telemetry, name)),
        };
        let entry = Entry { pool, source, teacher_source, pool_cfg, drift, stats };
        state.entries.insert(name.to_string(), Arc::new(entry));
        state.default.get_or_insert_with(|| name.to_string());
        Ok(())
    }

    /// Starts a fresh drift window for `name` (same baseline, empty
    /// sketches) — the `/admin/drift/{name}/reset` operation.
    pub fn clear_drift(&self, name: &str) -> Result<(), RegistryError> {
        let mut state = self.write();
        let entry = state
            .entries
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        *entry = Arc::new(Entry { drift: Arc::new(entry.drift.fresh()), ..(**entry).clone() });
        Ok(())
    }

    /// Marks an existing model as the one bare `/score` routes to.
    pub fn set_default(&self, name: &str) -> Result<(), RegistryError> {
        let mut state = self.write();
        if !state.entries.contains_key(name) {
            return Err(RegistryError::UnknownModel(name.to_string()));
        }
        state.default = Some(name.to_string());
        Ok(())
    }

    /// Name of the default model, if any model is registered.
    pub fn default_name(&self) -> Option<String> {
        self.read().default.clone()
    }

    /// The scoring pool registered under `name`. The returned `Arc` pins
    /// the pool (and its model) for the caller's lifetime even if the
    /// entry is hot-swapped mid-request.
    pub fn get(&self, name: &str) -> Option<Arc<ScoringPool>> {
        self.read().entries.get(name).map(|e| Arc::clone(&e.pool))
    }

    /// The entry `name` routes to — the default entry when `name` is
    /// `None` — under a single lock acquisition: the scoring route's
    /// only registry lock per request.
    pub(crate) fn resolve(&self, name: Option<&str>) -> Option<Arc<Entry>> {
        let state = self.read();
        let name = name.or(state.default.as_deref())?;
        state.entries.get(name).cloned()
    }

    /// Every live entry, sorted by name (a snapshot: the lock is
    /// released before the caller walks it).
    pub(crate) fn entries(&self) -> Vec<Arc<Entry>> {
        self.read().entries.values().cloned().collect()
    }

    /// Refreshes every entry's drift gauges from its live window, then
    /// renders this registry's per-model families — the part of
    /// `GET /metrics` after the process-wide families.
    pub fn render_into(&self, out: &mut String) {
        for entry in self.entries() {
            entry.stats.refresh_drift(&entry.drift.report());
        }
        self.telemetry.render_into(out);
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read().entries.keys().cloned().collect()
    }

    /// The source file `name` was loaded from, if it came from disk.
    pub fn source(&self, name: &str) -> Option<PathBuf> {
        self.read().entries.get(name).and_then(|e| e.source.clone())
    }

    /// The teacher-snapshot file `name`'s teacher was loaded from, if
    /// the entry serves one.
    pub fn teacher_source(&self, name: &str) -> Option<PathBuf> {
        self.read().entries.get(name).and_then(|e| e.teacher_source.clone())
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.read().entries.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.read().entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::tiny_model;
    use crate::model::ModelBaseline;
    use crate::telemetry::VariantTag;
    use uadb_data::Standardizer;
    use uadb_linalg::Matrix;

    /// `tiny_model(seed)` re-based on unit standardisation (means 0,
    /// stds 1) and the given score baseline, so drift figures are exact.
    fn unit_model(seed: u64, baseline: Option<ModelBaseline>) -> Arc<ServedModel> {
        let m = tiny_model(seed);
        let d = m.input_dim();
        let unit = Standardizer::from_parts(vec![0.0; d], vec![1.0; d]);
        let mut model = ServedModel::new(m.model().clone(), unit, m.meta().clone());
        model.set_baseline(baseline);
        Arc::new(model)
    }

    fn rendered(reg: &ModelRegistry) -> String {
        let mut text = String::new();
        reg.render_into(&mut text);
        text
    }

    /// A baseline of scores clustered low.
    fn low_baseline() -> ModelBaseline {
        let train_scores: Vec<f64> = (0..200).map(|i| 0.1 + (i % 10) as f64 * 0.02).collect();
        ModelBaseline::from_scores(&train_scores)
    }

    /// Live scores shifted high against [`low_baseline`].
    fn high_scores() -> Vec<f64> {
        (0..200).map(|i| 0.8 + (i % 10) as f64 * 0.01).collect()
    }

    #[test]
    fn name_validation() {
        for good in ["a", "iforest-39_thyroid", "v2.1", "A-Z_0.9"] {
            assert!(is_valid_name(good), "{good} should be valid");
        }
        let long = "x".repeat(MAX_NAME_LEN + 1);
        for bad in ["", "a/b", "a b", "ü", "..%2f", long.as_str()] {
            assert!(!is_valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn first_insert_becomes_default_and_routing_works() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.resolve(None).is_none());
        reg.insert("alpha", Arc::new(tiny_model(31)), PoolConfig::default()).unwrap();
        reg.insert("beta", Arc::new(tiny_model(32)), PoolConfig::default()).unwrap();
        assert_eq!(reg.default_name().as_deref(), Some("alpha"));
        assert!(Arc::ptr_eq(&reg.resolve(None).unwrap(), &reg.resolve(Some("alpha")).unwrap()));
        assert_eq!(reg.names(), vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(reg.len(), 2);
        assert!(reg.get("beta").is_some());
        assert!(reg.get("gamma").is_none());
        reg.set_default("beta").unwrap();
        assert_eq!(reg.default_name().as_deref(), Some("beta"));
        assert!(matches!(reg.set_default("gamma"), Err(RegistryError::UnknownModel(_))));
        assert!(matches!(
            reg.insert("bad/name", Arc::new(tiny_model(33)), PoolConfig::default()),
            Err(RegistryError::InvalidName(_))
        ));
    }

    #[test]
    fn reload_swaps_without_invalidating_held_pools() {
        let dir = std::env::temp_dir().join(format!("uadb_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.uadb");
        let first = tiny_model(34);
        crate::persist::save_file(&first, &path).unwrap();

        let reg = ModelRegistry::new();
        reg.insert_from_file("m", &path, PoolConfig { workers: 1, shard_rows: 64 }).unwrap();
        let held = reg.get("m").unwrap();
        let first_cal = first.model().calibration();

        // Overwrite the file with a different model and hot-reload.
        let second = tiny_model(35);
        let second_cal = second.model().calibration();
        assert_ne!(first_cal, second_cal, "seeds must produce distinguishable models");
        crate::persist::save_file(&second, &path).unwrap();
        reg.reload("m", None).unwrap();

        // The held Arc still scores against the *old* weights…
        assert_eq!(held.model().model().calibration(), first_cal);
        // …while new lookups see the new model.
        let fresh = reg.get("m").unwrap();
        assert_eq!(fresh.model().model().calibration(), second_cal);
        assert!(!Arc::ptr_eq(&held, &fresh));

        // Reload failure leaves the entry untouched.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(reg.reload("m", None), Err(RegistryError::Load(_))));
        assert!(Arc::ptr_eq(&reg.get("m").unwrap(), &fresh));

        assert!(matches!(reg.reload("nope", None), Err(RegistryError::UnknownModel(_))));
        let mem = ModelRegistry::new();
        mem.insert("ram", Arc::new(tiny_model(36)), PoolConfig::default()).unwrap();
        assert!(matches!(mem.reload("ram", None), Err(RegistryError::NoSourcePath(_))));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_stats_registered_once_and_shared() {
        let reg = ModelRegistry::new();
        let cfg = PoolConfig { workers: 1, shard_rows: 64 };
        reg.insert("stats-model", Arc::new(tiny_model(37)), cfg.clone()).unwrap();
        let a = reg.entry("stats-model").unwrap();
        // A swap of the name carries the slot over instead of
        // registering the series again.
        reg.insert("stats-model", Arc::new(tiny_model(38)), cfg).unwrap();
        let b = reg.entry("stats-model").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a.stats, &b.stats));
        a.stats.variant(VariantTag::Booster).requests.inc();
        a.stats.variant(VariantTag::Booster).rows.add(5);
        let text = rendered(&reg);
        let series = "uadb_model_requests_total{model=\"stats-model\",variant=\"booster\"}";
        assert_eq!(text.matches(series).count(), 1, "{text}");
        assert!(text.contains(&format!("{series} 1")));
        assert!(text.contains("uadb_model_rows_total{model=\"stats-model\",variant=\"booster\"} 5"));
        assert!(text.contains("uadb_model_rows_total{model=\"stats-model\",variant=\"teacher\"} 0"));
    }

    #[test]
    fn drift_window_tracks_shift_and_resets_clean() {
        let reg = ModelRegistry::new();
        let model = unit_model(40, Some(low_baseline()));
        let dim = model.input_dim();
        reg.insert("drift-model", model, PoolConfig { workers: 1, shard_rows: 64 }).unwrap();
        let d = Arc::clone(&reg.entry("drift-model").unwrap().drift);

        // Live traffic: scores shifted high, feature 0 shifted by +5σ.
        d.record_scores(&high_scores());
        let mut row = vec![0.0; dim];
        row[0] = 5.0;
        let rows: Vec<Vec<f64>> = (0..32).map(|_| row.clone()).collect();
        d.record_rows(&Matrix::from_rows(&rows).unwrap());

        let report = d.report();
        assert_eq!(report.live_samples, 200);
        assert!(report.psi.unwrap() > 0.25, "shifted scores must exceed the PSI alert band");
        assert!(report.live_anomaly_rate > 0.9);
        assert_eq!(report.feature_argmax, Some(0));
        assert!((report.feature_max - 5.0).abs() < 1e-9);

        let text = rendered(&reg);
        assert!(text.contains("uadb_score_drift_psi{model=\"drift-model\"}"));
        assert!(text.contains("uadb_feature_drift_max{model=\"drift-model\"} 5"));
        assert!(text.contains("uadb_anomaly_rate{model=\"drift-model\",window=\"live\"}"));
        assert!(text.contains("uadb_anomaly_rate{model=\"drift-model\",window=\"train\"}"));

        // Reset: fresh window, same baseline, entry re-pointed.
        reg.clear_drift("drift-model").unwrap();
        let fresh = Arc::clone(&reg.entry("drift-model").unwrap().drift);
        assert!(!Arc::ptr_eq(&d, &fresh));
        let report = fresh.report();
        assert_eq!(report.live_samples, 0);
        assert_eq!(report.feature_rows, 0);
        assert!(report.psi.is_none(), "empty window has no PSI yet");
        assert_eq!(report.baseline_samples, Some(200));
        assert!(matches!(reg.clear_drift("no-such-model"), Err(RegistryError::UnknownModel(_))));
    }

    #[test]
    fn swap_replaces_drift_window_but_keeps_gauge_series() {
        let reg = ModelRegistry::new();
        let cfg = PoolConfig { workers: 1, shard_rows: 64 };
        reg.insert("swap-model", unit_model(41, Some(low_baseline())), cfg.clone()).unwrap();
        let a = reg.entry("swap-model").unwrap();
        a.drift.record_scores(&high_scores());
        let series = "uadb_score_drift_psi{model=\"swap-model\"}";
        assert!(!rendered(&reg).contains(&format!("{series} 0\n")), "PSI gauge should be up");
        // Simulate /admin/reload: a new model install starts a clean window.
        reg.insert("swap-model", unit_model(42, Some(low_baseline())), cfg).unwrap();
        let b = reg.entry("swap-model").unwrap();
        assert!(!Arc::ptr_eq(&a.drift, &b.drift));
        assert_eq!(b.drift.report().live_samples, 0);
        // Same series, now 0 rather than stale pre-swap data.
        let text = rendered(&reg);
        assert_eq!(text.matches(series).count(), 1, "{text}");
        assert!(text.contains(&format!("{series} 0\n")));
    }

    #[test]
    fn stale_witness_aborts_the_swap_and_leaves_the_entry_alone() {
        let reg = ModelRegistry::new();
        let cfg = PoolConfig { workers: 1, shard_rows: 64 };
        reg.insert("m", Arc::new(tiny_model(43)), cfg.clone()).unwrap();
        let stale = reg.entry("m").unwrap();
        // A re-insert replaces the entry the witness was taken from.
        reg.insert("m", Arc::new(tiny_model(44)), cfg).unwrap();
        let live = reg.entry("m").unwrap();
        live.stats.routed.inc();
        live.stats.variant(VariantTag::Booster).requests.inc();
        live.drift.record_scores(&[0.5; 4]);

        // A detach-style swap derived from the stale entry's model.
        let mut derived = (**stale.pool.model()).clone();
        derived.detach_teacher();
        let (source, cfg) = (stale.source.clone(), stale.pool_cfg.clone());
        let swapped = reg.publish("m", Some(&stale), Arc::new(derived), source, None, cfg);
        assert!(matches!(swapped, Err(RegistryError::ConcurrentSwap(_))));
        let after = reg.entry("m").unwrap();
        assert!(Arc::ptr_eq(&after, &live));
        assert!(Arc::ptr_eq(&after.drift, &live.drift));
        assert!(Arc::ptr_eq(&after.stats, &live.stats));
        assert_eq!(after.drift.report().live_samples, 4);
        assert_eq!(after.stats.routed.get(), 1);
        assert_eq!(after.stats.variant(VariantTag::Booster).requests.get(), 1);
    }
}
