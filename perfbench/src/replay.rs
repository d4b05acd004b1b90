//! The traced run's in-process replay: the workload's generated inputs go
//! through each layer's public entry point, one span per call.
//!
//! Calls a layer makes internally are replayed separately on the same
//! inputs and recorded as child spans, so a layer's self time is its span
//! minus its children: `ServedModel::score_range_into` → the standardiser
//! and `UadbModel::score_calibrated_rows_into` → each member's
//! `Mlp::forward_rows` → each `Linear::forward_into`.

use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uadb_linalg::Matrix;
use uadb_serve::{json, ModelRegistry, ScoreWorkspace, ServedModel, TeacherModel};

const NS_PER_US: f64 = 1e3;

/// Bounds on replayed batches: enough for a median, few enough to keep
/// the span file small.
const MIN_ITERS: usize = 3;
const MAX_ITERS: usize = 4000;

/// Span name of a member's layer `l` out of `n`.
fn layer_name(l: usize, n: usize) -> &'static str {
    match (l, n - 1 - l) {
        (_, 0) => "linear.head",
        (0, _) => "linear.l0",
        (1, _) => "linear.l1",
        _ => "linear.hidden",
    }
}

/// One replayed batch with the scores the served model returns for it.
pub struct Case {
    pub x: Arc<Matrix>,
    pub reference: Vec<f64>,
}

/// Medians over iterations of a span's summed duration or self time, µs.
fn med_us(tr: &Tracer, name: &str, self_time: bool) -> f64 {
    let v = tr.per_iter(name, self_time);
    if v.is_empty() {
        0.0
    } else {
        median(&v) / NS_PER_US
    }
}

/// Replays scoring of the cases through the model's layers, cycling them
/// until `budget` is spent (at least [`MIN_ITERS`], at most [`MAX_ITERS`]
/// iterations).
/// Every replayed score is checked against the case's reference; returns
/// false on a mismatch.
pub fn scoring(
    tr: &mut Tracer,
    model: &ServedModel,
    cases: &[Case],
    budget: Duration,
    out: &mut Vec<Metric>,
) -> bool {
    let drift = uadb_serve::telemetry::metrics().install_drift(
        "perfbench-replay",
        model.standardizer().means(),
        model.standardizer().stds(),
        model.baseline(),
    );
    let mut ws = ScoreWorkspace::default();
    let mut std_rows = Vec::new();
    let mut nn = uadb::ScoreScratch::default();
    let mut booster_out = Vec::new();
    let mut fwd = uadb_nn::ForwardScratch::default();
    let (mut act_in, mut act_out) = (Vec::new(), Vec::new());
    let mut ok = true;
    let start = Instant::now();
    let mut iter = 0usize;
    while iter < MIN_ITERS || (iter < MAX_ITERS && start.elapsed() < budget) {
        let case = &cases[iter % cases.len()];
        let x: &Matrix = &case.x;
        let n = x.rows();
        let it = iter as u32;
        let (root, same) = tr.time("model.score_range_into", 0, it, || {
            model.score_range_into(x, 0, n, &mut ws).map(|s| bits_eq(s, &case.reference))
        });
        ok &= same == Ok(true);
        tr.time("standardizer.transform_rows_into", root, it, || {
            model.standardizer().transform_rows_into(x, 0, n, &mut std_rows)
        });
        let (booster, ()) = tr.time("booster.score_calibrated_rows_into", root, it, || {
            model.model().score_calibrated_rows_into(&std_rows, n, &mut nn, &mut booster_out)
        });
        ok &= bits_eq(&booster_out, &case.reference);
        for mlp in model.model().ensemble() {
            let (member, _) = tr.time("mlp.forward_rows", booster, it, || {
                mlp.forward_rows(&std_rows, n, &mut fwd).len()
            });
            act_in.clear();
            act_in.extend_from_slice(&std_rows);
            let layers = mlp.layers();
            for (l, layer) in layers.iter().enumerate() {
                act_out.resize(n * layer.output_dim(), 0.0);
                tr.time(layer_name(l, layers.len()), member, it, || {
                    layer.forward_into(&act_in, n, &mut act_out)
                });
                if l + 1 < layers.len() {
                    // The next layer's input, as the member computes it.
                    for v in act_out.iter_mut() {
                        *v = v.max(0.0);
                    }
                    std::mem::swap(&mut act_in, &mut act_out);
                }
            }
        }
        tr.time("drift.record", 0, it, || {
            drift.record_rows(x);
            drift.record_scores(&booster_out);
        });
        iter += 1;
    }
    out.push(Metric::new(
        "model.score_range_into_us",
        "us",
        med_us(tr, "model.score_range_into", false),
    ));
    let validate_standardize: Vec<f64> = tr
        .per_iter("model.score_range_into", true)
        .iter()
        .zip(tr.per_iter("standardizer.transform_rows_into", false))
        .map(|(own, std)| (own + std) / NS_PER_US)
        .collect();
    out.push(Metric::new("model.validate_standardize_us", "us", median(&validate_standardize)));
    out.push(Metric::new(
        "booster.score_rows_us",
        "us",
        med_us(tr, "booster.score_calibrated_rows_into", false),
    ));
    out.push(Metric::new(
        "booster.avg_calibrate_us",
        "us",
        med_us(tr, "booster.score_calibrated_rows_into", true),
    ));
    out.push(Metric::new("mlp.forward_rows_us", "us", med_us(tr, "mlp.forward_rows", false)));
    out.push(Metric::new("mlp.activation_us", "us", med_us(tr, "mlp.forward_rows", true)));
    let members = model.model().ensemble();
    let rows = median(&cases.iter().map(|c| c.x.rows() as f64).collect::<Vec<_>>());
    for (l, layer) in members[0].layers().iter().enumerate() {
        let name = layer_name(l, members[0].n_layers());
        let us = med_us(tr, name, false);
        let short = name.trim_start_matches("linear.");
        out.push(Metric::new(&format!("linear.{short}_us"), "us", us));
        // Multiply-adds from the shapes, per replayed batch, over the time.
        let madds = rows * (layer.input_dim() * layer.output_dim() * members.len()) as f64;
        out.push(Metric::new(&format!("gemm.{short}_gmadds"), "Gmadd/s", madds / (us * 1e3)));
    }
    out.push(Metric::new("telemetry.drift_record_us", "us", med_us(tr, "drift.record", false)));
    ok
}

/// Replays the pool fan-out, registry lookups and model-file loads of the
/// serving path on an in-process registry holding the served models.
pub fn serving(
    tr: &mut Tracer,
    registry: &ModelRegistry,
    name: &str,
    model_file: &Path,
    cases: &[Case],
    budget: Duration,
    out: &mut Vec<Metric>,
) -> bool {
    let pool = registry.get(name).expect("replay model is registered");
    let mut ok = true;
    let start = Instant::now();
    let mut iter = 0usize;
    while iter < MIN_ITERS || (iter < MAX_ITERS && start.elapsed() < budget) {
        let case = &cases[iter % cases.len()];
        let (_, scores) =
            tr.time("pool.score_shared", 0, iter as u32, || pool.score_shared(&case.x));
        ok &= matches!(scores, Ok(s) if bits_eq(&s, &case.reference));
        iter += 1;
    }
    out.push(Metric::new("pool.score_shared_us", "us", med_us(tr, "pool.score_shared", false)));

    // One lookup takes about as long as reading the clock, so each span
    // covers a group of lookups.
    const GETS: usize = 256;
    for it in 0..200u32 {
        tr.time("registry.get", 0, it, || {
            for _ in 0..GETS {
                std::hint::black_box(registry.get(std::hint::black_box(name)));
            }
        });
    }
    out.push(Metric::new(
        "registry.get_ns",
        "ns",
        median(&tr.per_iter("registry.get", false)) / GETS as f64,
    ));

    for it in 0..5u32 {
        let (_, loaded) = tr.time("persist.load_file", 0, it, || uadb_serve::load_file(model_file));
        ok &= loaded.is_ok();
    }
    out.push(Metric::new(
        "persist.load_file_ms",
        "ms",
        med_us(tr, "persist.load_file", false) / 1e3,
    ));
    ok
}

/// Replays the JSON codec, teacher scoring and metrics exposition of the
/// mixed workload on its request batches.
pub fn mixed(
    tr: &mut Tracer,
    cases: &[Case],
    teacher: &TeacherModel,
    out: &mut Vec<Metric>,
) -> bool {
    let mut ok = true;
    for (i, case) in cases.iter().enumerate() {
        let it = i as u32;
        let body =
            String::from_utf8(crate::client::json_body(&case.x)).expect("generated JSON is UTF-8");
        let (_, parsed) = tr.time("json.parse", 0, it, || json::parse(&body));
        ok &= parsed.is_ok();
        let doc = json::object([("scores", json::number_array(&case.reference))]);
        tr.time("json.encode", 0, it, || std::hint::black_box(json::to_string(&doc)).len());
        let (_, scores) = tr.time("teacher.score_rows", 0, it, || teacher.score_rows(&case.x));
        ok &= scores.is_ok();
    }
    for it in 0..20u32 {
        tr.time("telemetry.render", 0, it, || uadb_serve::telemetry::metrics().render().len());
    }
    out.push(Metric::new("json.parse_us", "us", med_us(tr, "json.parse", false)));
    out.push(Metric::new("json.encode_us", "us", med_us(tr, "json.encode", false)));
    out.push(Metric::new("teacher.score_us", "us", med_us(tr, "teacher.score_rows", false)));
    out.push(Metric::new("telemetry.render_ms", "ms", med_us(tr, "telemetry.render", false) / 1e3));
    ok
}

/// True when two score slices are equal bit for bit.
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// An in-process registry holding the served models, with default pools.
pub fn registry(files: &crate::data::ModelFiles) -> std::io::Result<ModelRegistry> {
    let registry = ModelRegistry::new();
    registry
        .insert_from_files("a", &files.a, None::<&Path>, Default::default())
        .map_err(std::io::Error::other)?;
    registry
        .insert_from_files("b", &files.b, Some(&files.b_teacher), Default::default())
        .map_err(std::io::Error::other)?;
    Ok(registry)
}
