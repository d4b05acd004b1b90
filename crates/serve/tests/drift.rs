//! Drift-plane integration: a live server driven with clean and
//! covariate-shifted traffic.
//!
//! Pins three properties end to end:
//!
//! 1. **Injected shift is detected.** Replaying the training rows keeps
//!    the PSI of the live score window near zero, while the same rows
//!    with feature 0 offset by +5.0 push the PSI past the 0.25
//!    "significant" band and make feature 0 the arg-max standardized
//!    feature shift, via `GET /admin/drift/{name}`.
//! 2. **`POST /admin/drift/{name}/reset`** clears the live window (and
//!    only the live window: the train-time baseline survives) without
//!    touching other models' windows.
//! 3. **`POST /admin/reload/{name}` resets the streaming stats.** The
//!    live window describes the model that is serving; a hot swap must
//!    start a fresh window, and the next `/metrics` scrape must show the
//!    PSI gauge back at zero. (Regression test: the window used to be
//!    keyed only by name, so stale pre-swap samples survived a reload.)
//! 4. **Per-model state belongs to the server's registry.** Two servers
//!    in one process serving the same name share no drift window and no
//!    per-model counters, and a reset on one leaves the other alone.
//!
//! Drift windows and per-model series are owned by each registry's
//! entries, so every assertion here is exact for the test's own server.

mod common;

use common::{request, rows_json};
use std::net::SocketAddr;
use std::sync::Arc;
use uadb::UadbConfig;
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_data::Dataset;
use uadb_detectors::DetectorKind;
use uadb_serve::json::{self, Value};
use uadb_serve::model::ServedModel;
use uadb_serve::pool::PoolConfig;
use uadb_serve::{persist, ModelRegistry, Server, ServerConfig, ServerHandle};

/// Trains a model on the Fig. 5 clustered dataset and persists it, so
/// registry entries carry a source path and `/admin/reload` works.
fn trained_to_file(seed: u64, tag: &str) -> (Dataset, std::path::PathBuf) {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    let model =
        ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(seed)).unwrap();
    let path = std::env::temp_dir().join(format!("uadb-drift-{tag}-{}.uadb", std::process::id()));
    persist::save_file(&model, &path).unwrap();
    (data, path)
}

fn spawn(registry: Arc<ModelRegistry>) -> ServerHandle {
    Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap()
}

/// `{"rows": [...]}` from raw rows, with feature 0 offset by `shift`.
fn shifted_rows_json(data: &Dataset, shift: f64) -> String {
    let rows: Vec<Value> = (0..data.n_samples())
        .map(|r| {
            let mut row = data.x.row(r).to_vec();
            row[0] += shift;
            json::number_array(&row)
        })
        .collect();
    json::to_string(&json::object([("rows", Value::Array(rows))]))
}

/// Fetches and parses `GET /admin/drift/{name}`.
fn drift_report(addr: SocketAddr, name: &str) -> Value {
    let (status, body) = request(addr, "GET", &format!("/admin/drift/{name}"), None);
    assert_eq!(status, 200, "GET /admin/drift/{name}: {body}");
    json::parse(&body).expect("drift report JSON")
}

fn num(report: &Value, key: &str) -> f64 {
    report
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("`{key}` missing or non-numeric in {report:?}"))
}

/// The current value of the first `/metrics` series starting with `prefix`.
fn gauge_value(addr: SocketAddr, prefix: &str) -> f64 {
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let line = body
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no series starting with `{prefix}` in:\n{body}"));
    line.rsplit(' ').next().unwrap().parse().expect("numeric sample")
}

#[test]
fn injected_shift_raises_psi_and_reset_clears_the_live_window() {
    let (data, path) = trained_to_file(91, "inject");
    let n = data.n_samples() as f64;
    let registry = Arc::new(ModelRegistry::new());
    let pool = PoolConfig { workers: 2, shard_rows: 64 };
    registry.insert_from_file("drift-ctl", &path, pool.clone()).unwrap();
    registry.insert_from_file("drift-shift", &path, pool).unwrap();
    let handle = spawn(registry);
    let addr = handle.addr();

    // Clean traffic replays the training rows; shifted traffic is
    // the same rows with feature 0 offset far outside its support.
    let (status, body) =
        request(addr, "POST", "/score/drift-ctl", Some(&shifted_rows_json(&data, 0.0)));
    assert_eq!(status, 200, "{body}");
    let (status, body) =
        request(addr, "POST", "/score/drift-shift", Some(&shifted_rows_json(&data, 5.0)));
    assert_eq!(status, 200, "{body}");

    let ctl = drift_report(addr, "drift-ctl");
    let shifted = drift_report(addr, "drift-shift");
    assert_eq!(num(&ctl, "live_samples"), n);
    assert_eq!(num(&shifted, "live_samples"), n);

    // Replayed training rows score into the baseline's own
    // distribution: PSI stays under the 0.1 "stable" band. The
    // shifted window must blow past 0.25 ("significant") and name
    // feature 0 as the arg-max standardized shift.
    let ctl_psi = num(&ctl, "psi");
    let shift_psi = num(&shifted, "psi");
    assert!(ctl_psi < 0.1, "control PSI {ctl_psi}");
    assert!(shift_psi > 0.25, "shifted PSI {shift_psi}");
    assert!(shift_psi > ctl_psi, "{shift_psi} <= {ctl_psi}");
    assert_eq!(num(&shifted, "feature_drift_argmax"), 0.0);
    assert!(num(&shifted, "feature_drift_max") > num(&ctl, "feature_drift_max"));

    // The all-models view carries both names.
    let (status, body) = request(addr, "GET", "/admin/drift", None);
    assert_eq!(status, 200);
    let models = json::parse(&body).unwrap();
    let models = models.get("models").and_then(Value::as_array).expect("models array");
    for name in ["drift-ctl", "drift-shift"] {
        assert!(
            models.iter().any(|m| m.get("model").and_then(Value::as_str) == Some(name)),
            "`{name}` missing from /admin/drift: {body}"
        );
    }

    // Reset clears the shifted live window — PSI back to "no data",
    // baseline intact — and leaves the control window untouched.
    let (status, body) = request(addr, "POST", "/admin/drift/drift-shift/reset", None);
    assert_eq!(status, 200, "{body}");
    let shifted = drift_report(addr, "drift-shift");
    assert_eq!(num(&shifted, "live_samples"), 0.0);
    assert!(
        matches!(shifted.get("psi"), Some(Value::Null)),
        "PSI should be null after reset: {shifted:?}"
    );
    assert!(num(&shifted, "baseline_samples") > 0.0);
    let ctl = drift_report(addr, "drift-ctl");
    assert_eq!(num(&ctl, "live_samples"), n, "reset leaked across models");

    // Unknown names are a 404 on both the report and the reset.
    let (status, _) = request(addr, "GET", "/admin/drift/no-such", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST", "/admin/drift/no-such/reset", None);
    assert_eq!(status, 404);

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reload_starts_a_fresh_drift_window() {
    let (data, path) = trained_to_file(92, "reload");
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert_from_file("drift-reload", &path, PoolConfig { workers: 2, shard_rows: 64 })
        .unwrap();
    let handle = spawn(registry);
    let addr = handle.addr();

    // Shifted traffic drives the PSI gauge well above zero.
    let (status, _) =
        request(addr, "POST", "/score/drift-reload", Some(&shifted_rows_json(&data, 5.0)));
    assert_eq!(status, 200);
    let before = drift_report(addr, "drift-reload");
    assert!(num(&before, "live_samples") > 0.0);
    let psi_series = "uadb_score_drift_psi{model=\"drift-reload\"}";
    let psi_before = gauge_value(addr, psi_series);
    assert!(psi_before > 0.25, "gauge {psi_before}");

    // Hot-swapping the model must start a fresh window: the swapped
    // model's live distribution is unrelated to the old traffic.
    let (status, body) = request(addr, "POST", "/admin/reload/drift-reload", None);
    assert_eq!(status, 200, "{body}");
    let after = drift_report(addr, "drift-reload");
    assert_eq!(num(&after, "live_samples"), 0.0, "streaming stats survived /admin/reload");
    assert!(matches!(after.get("psi"), Some(Value::Null)));
    // ...and the next scrape publishes the gauge back at zero.
    let psi_after = gauge_value(addr, psi_series);
    assert_eq!(psi_after, 0.0, "PSI gauge survived reload");

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn servers_in_one_process_keep_per_model_state_apart() {
    let (data, path) = trained_to_file(93, "isolate");
    let serve_default = || {
        let registry = Arc::new(ModelRegistry::new());
        registry
            .insert_from_file("default", &path, PoolConfig { workers: 2, shard_rows: 64 })
            .unwrap();
        spawn(registry)
    };
    let (a, b) = (serve_default(), serve_default());

    let rows: Vec<usize> = (0..8).collect();
    let (status, body) = request(a.addr(), "POST", "/score", Some(&rows_json(&data.x, &rows)));
    assert_eq!(status, 200, "{body}");
    assert_eq!(num(&drift_report(a.addr(), "default"), "live_samples"), 8.0);
    assert_eq!(num(&drift_report(b.addr(), "default"), "live_samples"), 0.0, "B saw A's rows");

    // B's exposition counts none of A's traffic.
    let (status, body) = request(b.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    let prefix = "uadb_model_requests_total{model=\"default\",";
    let series: Vec<&str> = body.lines().filter(|l| l.starts_with(prefix)).collect();
    assert!(!series.is_empty(), "no `{prefix}` series on B:\n{body}");
    for line in series {
        assert!(line.ends_with(" 0"), "B counts A's request: {line}");
    }

    // Resetting B's window leaves A's alone.
    let (status, body) = request(b.addr(), "POST", "/admin/drift/default/reset", None);
    assert_eq!(status, 200, "{body}");
    assert_eq!(num(&drift_report(a.addr(), "default"), "live_samples"), 8.0);

    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_file(&path);
}
