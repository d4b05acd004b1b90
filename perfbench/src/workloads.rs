//! The four workloads. Three drive the real server over loopback TCP; one
//! trains with Algorithm 1 in process. See `NOTES.md` for why each exists.

use crate::client::{self, Conn};
use crate::data::{self, Batch, Corpus, ModelFiles};
use crate::load::{self, Admin, ConnLog, Req};
use crate::replay;
use crate::report::{Metric, Report};
use crate::server::{self, family_delta, Exposition, Server};
use crate::stats::{median, summarize, Summary, Tally};
use crate::trace::Tracer;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uadb_linalg::gemm::stats as kernel_stats;
use uadb_metrics::roc_auc;
use uadb_serve::{persist, ServedModel, TeacherModel};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["score-small", "score-bulk", "score-mixed", "train"];

/// Server spawns (or dataset generations) whose median is `setup_s`.
const SETUP_REPEATS: usize = 25;

/// `score-small`: the latency limit of `score_slo_ok_ratio`.
const SMALL_SLO_US: f64 = 1000.0;

/// `train`: rows of the held-out set its AUROC is measured on.
const TRAIN_EVAL_ROWS: usize = 2048;

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order: the same
/// names on every workload (NOTES.md maps them to each workload's own).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("cpu_us_per_row", "us"), ("auroc", "ratio"), ("rss_mb", "MiB")];

/// Every per-layer metric of `BENCHMARK.json`, in its order. A workload
/// that does not exercise a layer reports 0 for it.
pub const LAYERS: [(&str, &str); 38] = [
    ("loadgen.sent", "count"),
    ("loadgen.reconnects", "count"),
    ("http.head_read_us", "us"),
    ("http.parse_us", "us"),
    ("http.serialize_us", "us"),
    ("http.write_flush_us", "us"),
    ("reactor.events_per_req", "count"),
    ("http.conns_opened", "count"),
    ("pool.queue_wait_us", "us"),
    ("pool.score_us", "us"),
    ("pool.shards_per_req", "count"),
    ("pool.worker_busy_share", "ratio"),
    ("pool.score_shared_us", "us"),
    ("model.score_range_into_us", "us"),
    ("model.validate_standardize_us", "us"),
    ("booster.score_rows_us", "us"),
    ("booster.avg_calibrate_us", "us"),
    ("mlp.forward_rows_us", "us"),
    ("mlp.activation_us", "us"),
    ("linear.l0_us", "us"),
    ("linear.l1_us", "us"),
    ("linear.head_us", "us"),
    ("gemm.l0_gmadds", "Gmadd/s"),
    ("gemm.l1_gmadds", "Gmadd/s"),
    ("gemm.head_gmadds", "Gmadd/s"),
    ("telemetry.drift_record_us", "us"),
    ("json.parse_us", "us"),
    ("json.encode_us", "us"),
    ("teacher.score_us", "us"),
    ("registry.get_ns", "ns"),
    ("persist.load_file_ms", "ms"),
    ("telemetry.render_ms", "ms"),
    ("teacher.fit_score_s", "s"),
    ("booster.fit_s", "s"),
    ("train.epoch_ms", "ms"),
    ("train.epochs", "count"),
    ("gemm.train_gmadds", "Gmadd/s"),
    ("trace.overhead_us", "us"),
];

/// Runs one workload.
pub fn run(name: &str, args: Args) -> io::Result<Report> {
    let name = WORKLOADS.iter().find(|w| **w == name).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("unknown workload `{name}`"))
    })?;
    let mut report = Report::new(name);
    common_provenance(&mut report, args);
    let ticks = cpu_ticks();
    if *name == "train" {
        train(&mut report, args)?;
    } else {
        score(&mut report, args)?;
    }
    // Time the hypervisor gave this VM's CPUs to others: a run with a
    // high share was slowed by the host, not by the code.
    let steal = ticks.zip(cpu_ticks()).map(|((s0, t0), (s1, t1))| {
        format!("{:.2}", 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64)
    });
    report.prov("cpu_steal_pct", steal.unwrap_or_else(|| "unavailable".to_string()));
    if args.trace {
        order_layers(&mut report);
    }
    Ok(report)
}

fn common_provenance(r: &mut Report, args: Args) {
    r.prov("commit", commit());
    r.prov("source_digest", format!("{:016x}", source_digest()));
    r.prov("nproc", data::nproc());
    r.prov("seed", args.seed);
    r.prov("seconds", args.seconds);
    r.prov("traced", args.trace);
    r.prov("smoke", false);
}

/// `(steal, total)` CPU time of all CPUs from `/proc/stat`, in ticks.
fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal guest guest_nice
    let ticks: Vec<u64> =
        text.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Orders the per-layer metrics as [`LAYERS`] lists them and fills the
/// ones this workload does not exercise with 0.
fn order_layers(r: &mut Report) {
    let mut measured = std::mem::take(&mut r.layers);
    for (name, unit) in LAYERS {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.swap_remove(i);
                assert_eq!(m.unit, unit, "{name} unit");
                r.layers.push(m);
            }
            None => {
                r.layers.push(Metric::new(name, unit, 0.0));
                r.dropped.push((name, "not exercised by this workload"));
            }
        }
    }
    // Measured extras (the pack ratio, once the counters see packs) are
    // printed, though BENCHMARK.json does not list them.
    r.table.clear();
    for m in measured {
        r.row(&m.name, m.unit, m.value, "not in BENCHMARK.json");
    }
}

// ---------------------------------------------------------------- score

struct Plan {
    reqs: Vec<Req>,
    batches: Vec<Batch>,
}

/// Builds a score workload's requests with their reference scores,
/// computed in process with `ServedModel::score_rows` (and
/// `TeacherModel::score_rows`) on the same model files.
fn plan(name: &str, corpus: &Corpus, seed: u64, served: &Served) -> io::Result<Plan> {
    let (rows, count, tag) = match name {
        "score-small" => (1, 2048, 11),
        "score-bulk" => (8192, 4, 12),
        _ => (256, 16, 13),
    };
    let batches = data::batches(corpus, rows, count, data::mix(seed, tag));
    let reference = |scores: Result<Vec<f64>, uadb_serve::ScoreError>| {
        scores.map_err(|e| io::Error::other(format!("reference scoring: {e}")))
    };
    let mut reqs = Vec::with_capacity(count);
    for (i, batch) in batches.iter().enumerate() {
        // score-mixed: half the requests go to `a`; of those to `b`
        // (which has its teacher attached), half ask for `?variant=both`.
        let (model, both) = match (name, i % 4) {
            ("score-mixed", 1) => ("b", false),
            ("score-mixed", 3) => ("b", true),
            _ => ("a", false),
        };
        let booster = if model == "a" { &served.a } else { &served.b };
        let mut expect = vec![(
            if both { "booster" } else { "scores" },
            reference(booster.score_rows(&batch.x))?,
        )];
        if both {
            expect.push(("teacher", reference(served.b_teacher.score_rows(&batch.x))?));
        }
        let path = format!("/score/{model}{}", if both { "?variant=both" } else { "" });
        let binary = name != "score-mixed";
        let bytes = if binary {
            client::post(&path, "application/x-uadb-rows", &client::binary_body(&batch.x))
        } else {
            client::post(&path, "application/json", &client::json_body(&batch.x))
        };
        reqs.push(Req { bytes, binary, expect, batch: i, rows, model });
    }
    Ok(Plan { reqs, batches })
}

/// Runs the workload's load for `run`, recording client spans if `trace`.
fn drive(
    name: &str,
    addr: std::net::SocketAddr,
    reqs: &[Req],
    run: Duration,
    trace: bool,
) -> Vec<ConnLog> {
    match name {
        // Closed loops that keep the server busy: idle vCPUs between
        // requests would make each request pay the host's wake-up cost,
        // which varies with the host's load (NOTES.md).
        "score-small" => load::closed_loop(addr, reqs, 2, run, &[], trace),
        "score-bulk" => load::closed_loop(addr, reqs, 1, run, &[], trace),
        _ => {
            let every = Duration::from_secs(1);
            let admin = [
                Some(Admin {
                    name: "reload",
                    bytes: client::post("/admin/reload/b", "application/json", b""),
                    first: Duration::from_millis(500),
                    every,
                }),
                Some(Admin { name: "scrape", bytes: client::get("/metrics"), first: every, every }),
            ];
            load::closed_loop(addr, reqs, 2, run, &admin, trace)
        }
    }
}

/// The served model files and their in-process copies.
struct Served {
    files: ModelFiles,
    a: ServedModel,
    b: ServedModel,
    b_teacher: TeacherModel,
}

/// What one load phase left behind.
struct LoadRun {
    untraced: Vec<ConnLog>,
    /// The traced half of a traced run.
    traced: Option<Vec<ConnLog>>,
    before: Exposition,
    after: Exposition,
    start: Instant,
    wall: Duration,
    /// Server CPU time over the whole load, in seconds.
    server_cpu_s: f64,
}

fn score(r: &mut Report, args: Args) -> io::Result<()> {
    let name = r.workload;
    let corpus = Corpus::new(args.seed);
    let files = data::model_files(args.seed, &corpus)?;
    let load_model = |p: &Path| persist::load_file(p).map_err(io::Error::other);
    let served = Served {
        a: load_model(&files.a)?,
        b: load_model(&files.b)?,
        b_teacher: persist::load_teacher_file(&files.b_teacher).map_err(io::Error::other)?,
        files,
    };
    let plan = plan(name, &corpus, args.seed, &served)?;
    model_provenance(r, &served.a, data::TRAIN_ROWS);
    r.prov("eval_pool_rows", data::EVAL_ROWS);
    r.prov("rows_per_request", plan.reqs[0].rows);
    r.prov("distinct_requests", plan.reqs.len());

    // Set-up: spawn to first 200 from /healthz, model loads included.
    let flags = served.files.model_flags();
    let (mut setups, mut idle_rss) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let (s, took) = Server::spawn(&flags)?;
        setups.push(took.as_secs_f64());
        idle_rss.push(server::rss_mb(&s.status_path())?);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let addr = server.addr;

    // Warm-up, so pools, caches and the allocator are in steady state.
    let warm = load::closed_loop(addr, &plan.reqs, 1, Duration::from_millis(300), &[], false);
    let before = server::scrape(&mut Conn::new(addr))?;
    let run = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let status = server.status_path();
    let cpu0 = server::cpu_s(&server.stat_path())?;
    let ((untraced, traced), rss_samples) = server::sample_rss(&status, || {
        if args.trace {
            // Half untraced, half traced: the p50 difference is the overhead.
            let untraced = drive(name, addr, &plan.reqs, run / 2, false);
            (untraced, Some(drive(name, addr, &plan.reqs, run / 2, true)))
        } else {
            (drive(name, addr, &plan.reqs, run, false), None)
        }
    });
    let wall = start.elapsed();
    let server_cpu_s = server::cpu_s(&server.stat_path())? - cpu0;
    let after = server::scrape(&mut Conn::new(addr))?;
    let rss_peak = server::peak_rss_mb(&status)?;
    server.stop();
    let load = LoadRun { untraced, traced, before, after, start, wall, server_cpu_s };

    let mut tally = Tally::default();
    for s in warm.iter().flat_map(|l| &l.samples) {
        tally.record(s.ok);
    }
    for l in load.untraced.iter().chain(load.traced.iter().flatten()) {
        for s in &l.samples {
            tally.record(s.ok);
        }
        for (_, _, ok) in &l.admin {
            tally.record(*ok);
        }
    }
    r.tally = tally;
    r.prov("isa", isa_from_exposition(&load.before, &load.after));

    // Server CPU is measured over the whole load; in a traced run that
    // includes the traced half, whose spans are recorded by the client.
    let rows_of = |logs: &[ConnLog]| -> usize {
        logs.iter().flat_map(|l| &l.samples).map(|s| plan.reqs[s.req].rows).sum()
    };
    let rows_all = rows_of(&load.untraced) + load.traced.as_deref().map_or(0, rows_of);
    let cpu_us_per_row = load.server_cpu_s * 1e6 / rows_all as f64;

    // The other end-to-end numbers come from the untraced load only.
    let samples: Vec<&load::Sample> = load.untraced.iter().flat_map(|l| &l.samples).collect();
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_us()).collect();
    let sum = summarize(&lat);
    let run_s = if args.trace { wall.as_secs_f64() / 2.0 } else { wall.as_secs_f64() };
    let rows_ok: usize = samples.iter().filter(|s| s.ok).map(|s| plan.reqs[s.req].rows).sum();
    let (mut labels, mut scores, mut t_labels, mut t_scores) = (vec![], vec![], vec![], vec![]);
    for s in samples.iter().filter(|s| s.ok) {
        let req = &plan.reqs[s.req];
        let batch_labels = &plan.batches[req.batch].labels;
        labels.extend_from_slice(batch_labels);
        scores.extend_from_slice(&req.expect[0].1);
        if let Some((_, t)) = req.expect.get(1) {
            t_labels.extend_from_slice(batch_labels);
            t_scores.extend_from_slice(t);
        }
    }
    let auroc = roc_auc(&labels, &scores);
    let setup_s = median(&setups);

    r.set_end_to_end([setup_s, cpu_us_per_row, auroc, median(&idle_rss)]);
    r.row("setup_s", "s", setup_s, setup_note("server spawns", &setups));
    r.row(
        "cpu_us_per_row",
        "us",
        cpu_us_per_row,
        format!("server CPU {:.3} s over {rows_all} rows", load.server_cpu_s),
    );
    timing_rows(r, "score", &sum);
    if name == "score-small" {
        let within = samples.iter().filter(|s| s.ok && s.latency_us() <= SMALL_SLO_US).count();
        r.row(
            "score_slo_ok_ratio",
            "ratio",
            within as f64 / samples.len() as f64,
            format!("share of requests sent that completed within {SMALL_SLO_US} us"),
        );
    }
    r.row("score_rows_per_s", "1/s", rows_ok as f64 / run_s, format!("over {run_s:.2} s"));
    if name == "score-mixed" {
        for kind in ["reload", "scrape"] {
            let ms: Vec<f64> = load
                .untraced
                .iter()
                .flat_map(|l| &l.admin)
                .filter(|(k, _, _)| *k == kind)
                .map(|(_, ms, _)| *ms)
                .collect();
            r.row(&format!("{kind}_ms"), "ms", median(&ms), format!("n={}", ms.len()));
        }
        r.row("teacher_auroc", "ratio", roc_auc(&t_labels, &t_scores), "variant=both responses");
    }
    r.row("booster_auroc", "ratio", auroc, "served scores vs generated labels");
    let idle_note =
        format!("server VmRSS once set up (models loaded, idle), median of {SETUP_REPEATS} spawns");
    r.row("rss_mb", "MiB", median(&idle_rss), idle_note);
    r.row("rss_load_mb", "MiB", median(&rss_samples), rss_note("server", &rss_samples));
    r.row("rss_peak_mb", "MiB", rss_peak, "server VmHWM");

    if args.trace {
        score_layers(r, args, &plan, &served, &load)?;
    }
    Ok(())
}

/// A timing's rows: the median and the highest percentile with at least
/// ten samples beyond it, each with the sample count.
fn timing_rows(r: &mut Report, prefix: &str, sum: &Summary) {
    r.row(&format!("{prefix}_p50_us"), "us", sum.p50, format!("n={}", sum.n));
    match sum.tail {
        Some(t) => r.row(
            &format!("{prefix}_p{}_us", t.pct),
            "us",
            t.value,
            format!("n={}, {} beyond", sum.n, t.beyond),
        ),
        None => r.row(&format!("{prefix}_tail_us"), "us", f64::NAN, "too few samples"),
    }
}

/// The set-up row note: repeat count and range, in ms.
fn setup_note(what: &str, setups: &[f64]) -> String {
    let lo = setups.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
    let hi = setups.iter().copied().fold(0.0, f64::max) * 1e3;
    format!("median of {} {what} ({lo:.2}-{hi:.2} ms)", setups.len())
}

/// The resident-set row note: sample count and range.
fn rss_note(what: &str, samples: &[f64]) -> String {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(0.0, f64::max);
    format!("{what} VmRSS, median of {} samples ({lo:.1}-{hi:.1})", samples.len())
}

/// The traced run's per-layer metrics: client spans, the server's own
/// counters, then the in-process replay of the same inputs.
fn score_layers(
    r: &mut Report,
    args: Args,
    plan: &Plan,
    served: &Served,
    load: &LoadRun,
) -> io::Result<()> {
    let traced = load.traced.as_deref().expect("a traced run has a traced half");
    let untraced = &load.untraced;
    let mut tr = Tracer::new(load.start);
    // The client spans recorded during the traced half, one per request.
    for (n, &(start, end)) in traced.iter().flat_map(|l| &l.spans).enumerate() {
        tr.record("client.request", 0, n as u32, start, end);
    }
    let both = || untraced.iter().chain(traced).flat_map(|l| &l.samples);
    let p50 = |logs: &[ConnLog]| {
        median(&logs.iter().flat_map(|l| &l.samples).map(|s| s.latency_us()).collect::<Vec<_>>())
    };
    let layers = &mut r.layers;
    layers.push(Metric::new("trace.overhead_us", "us", p50(traced) - p50(untraced)));
    layers.push(Metric::new("loadgen.sent", "count", both().count() as f64));
    let reconnects: u64 = untraced.iter().chain(traced).map(|l| l.reconnects).sum();
    layers.push(Metric::new("loadgen.reconnects", "count", reconnects as f64));
    r.dropped.push((
        "loadgen.late_p99_us",
        "every load is a closed loop, which has no send schedule to run late against",
    ));

    // Server layers: deltas of its own counters over the whole load.
    let d = |series: &str| server::delta(&load.before, &load.after, series);
    let stage_us = |stage: &str| {
        let count = d(&format!("uadb_stage_duration_seconds_count{{stage=\"{stage}\"}}"));
        let sum = d(&format!("uadb_stage_duration_seconds_sum{{stage=\"{stage}\"}}"));
        if count > 0.0 {
            sum / count * 1e6
        } else {
            0.0
        }
    };
    for (metric, stage) in [
        ("http.head_read_us", "head_read"),
        ("http.parse_us", "parse"),
        ("http.serialize_us", "serialize"),
        ("http.write_flush_us", "write_flush"),
        ("pool.queue_wait_us", "queue_wait"),
        ("pool.score_us", "score"),
    ] {
        layers.push(Metric::new(metric, "us", stage_us(stage)));
    }
    let requests = d("uadb_http_requests_total").max(1.0);
    let scored = d("uadb_stage_duration_seconds_count{stage=\"score\"}").max(1.0);
    let events = family_delta(&load.before, &load.after, "uadb_reactor_events_total");
    layers.push(Metric::new("reactor.events_per_req", "count", events / requests));
    layers.push(Metric::new("http.conns_opened", "count", d("uadb_http_connections_opened_total")));
    layers.push(Metric::new("pool.shards_per_req", "count", d("uadb_pool_shards_total") / scored));
    // Each model has a default pool of one worker per core; busy share is
    // scoring time over the machine's core time.
    let core_ns = load.wall.as_secs_f64() * 1e9 * data::nproc() as f64;
    layers.push(Metric::new(
        "pool.worker_busy_share",
        "ratio",
        d("uadb_pool_worker_busy_nanoseconds_total") / core_ns,
    ));

    // In-process replay of the same generated inputs, layer by layer. The
    // mixed workload replays model `b`, which also carries the teacher.
    let (name, model, file) = if r.workload == "score-mixed" {
        ("b", &served.b, &served.files.b)
    } else {
        ("a", &served.a, &served.files.a)
    };
    let cases: Vec<replay::Case> = plan
        .reqs
        .iter()
        .filter(|q| q.model == name)
        .map(|q| replay::Case {
            x: Arc::clone(&plan.batches[q.batch].x),
            reference: q.expect[0].1.clone(),
        })
        .collect();
    let budget = Duration::from_secs_f64(args.seconds / 4.0);
    let packs = kernel_stats::snapshot();
    let mut ok = replay::scoring(&mut tr, model, &cases, budget, &mut r.layers);
    pack_ratio(r, packs);
    let registry = replay::registry(&served.files)?;
    ok &= replay::serving(&mut tr, &registry, name, file, &cases, budget, &mut r.layers);
    if r.workload == "score-mixed" {
        ok &= replay::mixed(&mut tr, &cases, &served.b_teacher, &mut r.layers);
    }
    r.checks_passed &= ok;
    write_spans(&tr, r.workload, args.seed)
}

/// `gemm.pack_reuse_ratio` from the in-process kernel counters since
/// `before`; when the replayed path counted no packs at all the ratio is
/// undefined and it is reported as dropped.
fn pack_ratio(r: &mut Report, before: kernel_stats::KernelStats) {
    let now = kernel_stats::snapshot();
    let built = now.packs_built - before.packs_built;
    let reused = now.packs_reused - before.packs_reused;
    if built + reused == 0 {
        r.dropped.push((
            "gemm.pack_reuse_ratio",
            "0/0: the replayed path counted no packs (nn::Linear packs its weight cache with \
             gemm::pack_rhs, which the kernel-stats counters do not see)",
        ));
    } else {
        r.layers.push(Metric::new(
            "gemm.pack_reuse_ratio",
            "ratio",
            reused as f64 / (built + reused) as f64,
        ));
    }
}

fn write_spans(tr: &Tracer, workload: &str, seed: u64) -> io::Result<()> {
    let path = Path::new(data::CACHE_DIR).join("spans").join(format!("{workload}-seed{seed}.tsv"));
    tr.write(&path)?;
    println!("spans: {} written to {}", tr.spans().len(), path.display());
    Ok(())
}

fn model_provenance(r: &mut Report, m: &ServedModel, train_rows: usize) {
    let members = m.model().ensemble();
    let widths: Vec<String> =
        members[0].layers().iter().map(|l| l.output_dim().to_string()).collect();
    r.prov("model", format!("{}->{} x{}", m.input_dim(), widths.join("->"), members.len()));
    let cfg = m.model().config();
    r.prov("train_rows", train_rows);
    let fold_rows = train_rows - train_rows / cfg.cv_folds.max(1);
    r.prov("effective_train_batch", cfg.effective_batch(fold_rows));
    r.prov(
        "train_config",
        format!(
            "T={} epochs={} batch={} lr={} cv_folds={}",
            cfg.t_steps, cfg.epochs_per_step, cfg.batch_size, cfg.learning_rate, cfg.cv_folds
        ),
    );
}

/// The ISA the GEMM kernel took, from the server's call counters.
fn isa_from_exposition(before: &Exposition, after: &Exposition) -> String {
    let calls: Vec<(&str, f64)> = ["avx512", "avx", "portable"]
        .iter()
        .map(|isa| {
            (*isa, server::delta(before, after, &format!("uadb_gemm_calls_total{{isa=\"{isa}\"}}")))
        })
        .collect();
    describe_isa(&calls)
}

fn isa_in_process(before: kernel_stats::KernelStats) -> String {
    let now = kernel_stats::snapshot();
    describe_isa(&[
        ("avx512", (now.calls_avx512 - before.calls_avx512) as f64),
        ("avx", (now.calls_avx - before.calls_avx) as f64),
        ("portable", (now.calls_portable - before.calls_portable) as f64),
    ])
}

fn describe_isa(calls: &[(&str, f64)]) -> String {
    let used: Vec<String> = calls
        .iter()
        .filter(|(_, n)| *n > 0.0)
        .map(|(isa, n)| format!("{isa} ({n} calls)"))
        .collect();
    if used.is_empty() {
        "none counted".to_string()
    } else {
        used.join(", ")
    }
}

/// The git commit, when the benchmark runs at the root of a git checkout.
fn commit() -> String {
    let unknown = || "unknown (not a git checkout)".to_string();
    if !Path::new(".git").exists() {
        return unknown();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(unknown)
}

/// FNV-1a over the paths and contents of the sources this benchmark
/// builds, so a result identifies its code even without git.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files =
        vec![Path::new("Cargo.toml").to_path_buf(), Path::new("Cargo.lock").to_path_buf()];
    for dir in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------- train

/// Epoch-end times from a caller-installed progress hook.
fn epoch_hook() -> (uadb_nn::ProgressHook, Arc<Mutex<Vec<Instant>>>) {
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(512)));
    let sink = Arc::clone(&stamps);
    let hook = uadb_nn::ProgressHook::new(move |_, _, _| {
        sink.lock().expect("epoch log lock poisoned").push(Instant::now());
    });
    (hook, stamps)
}

/// Intervals between consecutive epoch ends (the first measured from
/// `start`), in µs.
fn epoch_intervals_us(start: Instant, stamps: &[Instant]) -> Vec<f64> {
    let mut prev = start;
    stamps
        .iter()
        .map(|&t| {
            let us = t.duration_since(prev).as_secs_f64() * 1e6;
            prev = t;
            us
        })
        .collect()
}

fn train(r: &mut Report, args: Args) -> io::Result<()> {
    let data_seed = data::mix(args.seed, 21);
    let model_seed = data::mix(args.seed, 22);
    let workers = data::nproc();

    // Set-up: dataset generation (training rows plus held-out rows).
    let mut setups = Vec::new();
    let mut draw: Option<uadb_data::Dataset> = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let d = data::dataset("perfbench_train", data::TRAIN_ROWS + TRAIN_EVAL_ROWS, data_seed);
        setups.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &draw {
            r.checks_passed &= replay::bits_eq(prev.x.as_slice(), d.x.as_slice());
        }
        draw = Some(d);
    }
    let draw = draw.expect("generated at least once");
    let data = data::slice(&draw, "perfbench_train", 0, data::TRAIN_ROWS);
    let eval = data::slice(
        &draw,
        "perfbench_train_eval",
        data::TRAIN_ROWS,
        data::TRAIN_ROWS + TRAIN_EVAL_ROWS,
    );
    let labels = eval.labels_f64();
    let dir = Path::new(data::CACHE_DIR).join("train");
    std::fs::create_dir_all(&dir)?;
    let file = dir.join(format!("seed-{}.uadb", args.seed));

    // One fit: Algorithm 1 through the library call behind
    // `uadb-serve train`, then persist::save and a reload.
    let fit = |hook: uadb_nn::ProgressHook| -> io::Result<(ServedModel, Arc<TeacherModel>, Vec<u8>, ServedModel)> {
        let mut cfg = data::paper_config(model_seed);
        cfg.progress = Some(hook);
        let (served, teacher) =
            ServedModel::train_with_teacher_workers(&data, data::TEACHER, cfg, workers)
                .map_err(|e| io::Error::other(format!("training: {e}")))?;
        let mut bytes = Vec::new();
        persist::save(&served, &mut bytes).map_err(io::Error::other)?;
        std::fs::write(&file, &bytes)?;
        let reloaded = persist::load_file(&file).map_err(io::Error::other)?;
        Ok((served, teacher, bytes, reloaded))
    };

    let kernels = kernel_stats::snapshot();
    let run = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    let mut fit_s = Vec::new();
    let mut fit_cpu_s = Vec::new();
    let mut epochs_us = Vec::new();
    // (model bytes, booster AUROC, teacher AUROC) of the first fit.
    let mut first: Option<(Vec<u8>, f64, f64)> = None;
    let mut tally = Tally::default();
    let (fits, rss_samples) = server::sample_rss("/proc/self/status", || -> io::Result<()> {
        while fit_s.is_empty() || t_run.elapsed() < run {
            let (hook, stamps) = epoch_hook();
            let (t, cpu0) = (Instant::now(), server::cpu_s("/proc/self/stat")?);
            let (served, teacher, bytes, reloaded) = fit(hook)?;
            fit_s.push(t.elapsed().as_secs_f64());
            fit_cpu_s.push(server::cpu_s("/proc/self/stat")? - cpu0);
            epochs_us
                .extend(epoch_intervals_us(t, &stamps.lock().expect("epoch log lock poisoned")));
            // Checks: the reload scores bit-identically, and every fit of the
            // same data and seed writes the same bytes.
            let scores = served.score_rows(&data.x).map_err(io::Error::other)?;
            let reloaded_scores = reloaded.score_rows(&data.x).map_err(io::Error::other)?;
            let same = replay::bits_eq(&scores, &reloaded_scores)
                && first.as_ref().is_none_or(|(b, _, _)| *b == bytes);
            tally.record(same);
            if first.is_none() {
                let b_scores = reloaded.score_rows(&eval.x).map_err(io::Error::other)?;
                let t_scores = teacher.score_rows(&eval.x).map_err(io::Error::other)?;
                first = Some((bytes, roc_auc(&labels, &b_scores), roc_auc(&labels, &t_scores)));
            }
        }
        Ok(())
    });
    fits?;
    r.tally = tally;
    let (_, booster_auroc, teacher_auroc) = first.expect("at least one fit");
    let (rss, rss_peak) = (median(&rss_samples), server::peak_rss_mb("/proc/self/status")?);
    let fit_med = median(&fit_s);
    let sum = summarize(&epochs_us);
    let setup_s = median(&setups);
    let cpu_us_per_row = median(&fit_cpu_s) * 1e6 / data::TRAIN_ROWS as f64;

    r.prov("isa", isa_in_process(kernels));
    r.prov("model", format!("{}->128->128->1 x3", data::DIM));
    r.prov("train_rows", data::TRAIN_ROWS);
    let cfg = data::paper_config(model_seed);
    r.prov(
        "effective_train_batch",
        cfg.effective_batch(data::TRAIN_ROWS - data::TRAIN_ROWS / cfg.cv_folds.max(1)),
    );
    r.prov("train_workers", workers);
    r.prov("fits", fit_s.len());

    let rows_per_s = data::TRAIN_ROWS as f64 / fit_med;
    r.set_end_to_end([setup_s, cpu_us_per_row, booster_auroc, rss]);
    r.row("setup_s", "s", setup_s, setup_note("dataset generations", &setups));
    r.row(
        "cpu_us_per_row",
        "us",
        cpu_us_per_row,
        format!("process CPU of one fit over {} rows, median of {}", data::TRAIN_ROWS, fit_s.len()),
    );
    r.row("train_s", "s", fit_med, format!("median of {} fits (fit + save + reload)", fit_s.len()));
    timing_rows(r, "train_epoch", &sum);
    r.row("train_rows_per_s", "1/s", rows_per_s, "rows through one whole fit per second");
    r.row("booster_auroc", "ratio", booster_auroc, format!("{TRAIN_EVAL_ROWS} held-out rows"));
    r.row("teacher_auroc", "ratio", teacher_auroc, "IForest on the same rows");
    r.row("rss_mb", "MiB", rss, rss_note("benchmark process", &rss_samples));
    r.row("rss_peak_mb", "MiB", rss_peak, "benchmark process VmHWM");

    if args.trace {
        train_layers(r, args, &data, model_seed, &file, median(&epochs_us))?;
    }
    Ok(())
}

/// Traced replay of one fit: the teacher's `fit_score` and the booster's
/// `Uadb::fit_with` under their own spans, then model-file loads.
fn train_layers(
    r: &mut Report,
    args: Args,
    data: &uadb_data::Dataset,
    model_seed: u64,
    file: &Path,
    untraced_epoch_us: f64,
) -> io::Result<()> {
    let mut tr = Tracer::new(Instant::now());
    let standardizer = uadb_data::preprocess::Standardizer::fit(&data.x);
    let x = standardizer.transform(&data.x);
    let (_, teacher_scores) = tr.time("detector.fit_score", 0, 0, || {
        uadb_detectors::snapshot::build(data::TEACHER, model_seed).fit_score(&x)
    });
    let teacher_scores = teacher_scores.map_err(|e| io::Error::other(format!("teacher: {e}")))?;
    let (hook, stamps) = epoch_hook();
    let mut cfg = data::paper_config(model_seed);
    cfg.progress = Some(hook);
    let packs = kernel_stats::snapshot();
    let t = Instant::now();
    let (fit_id, model) = tr.time("booster.fit_with", 0, 0, || {
        uadb::Uadb::new(cfg.clone()).fit_with(&x, &teacher_scores, data::nproc())
    });
    let model = model.map_err(|e| io::Error::other(format!("booster: {e}")))?;
    let stamps = stamps.lock().expect("epoch log lock poisoned").clone();
    let mut prev = t;
    for (i, &s) in stamps.iter().enumerate() {
        tr.record("train.epoch", fit_id, i as u32, prev, s);
        prev = s;
    }
    pack_ratio(r, packs);

    // The replayed fit must reproduce the timed fit's model exactly.
    let reloaded = persist::load_file(file).map_err(io::Error::other)?;
    r.checks_passed &=
        replay::bits_eq(&model.score_calibrated(&x), &reloaded.model().score_calibrated(&x));
    for it in 0..5u32 {
        let (_, loaded) = tr.time("persist.load_file", 0, it, || persist::load_file(file));
        r.checks_passed &= loaded.is_ok();
    }

    let fit_s = median(&tr.per_iter("booster.fit_with", false)) / 1e9;
    let epoch_us = median(&tr.per_iter("train.epoch", false)) / 1e3;
    // Multiply-adds from the shapes: each member-epoch runs forward and
    // backward (about 3x the forward multiply-adds) over the fold's rows,
    // and each step predicts every row with every member and the probe.
    let n = x.rows() as f64;
    let fwd: f64 =
        model.ensemble()[0].layers().iter().map(|l| (l.input_dim() * l.output_dim()) as f64).sum();
    let folds = cfg.cv_folds.max(1) as f64;
    let fold_rows = n - (n / folds).floor();
    let madds =
        stamps.len() as f64 * fold_rows * 3.0 * fwd + cfg.t_steps as f64 * (folds + 1.0) * n * fwd;
    let layers = &mut r.layers;
    layers.push(Metric::new(
        "teacher.fit_score_s",
        "s",
        median(&tr.per_iter("detector.fit_score", false)) / 1e9,
    ));
    layers.push(Metric::new("booster.fit_s", "s", fit_s));
    layers.push(Metric::new("train.epoch_ms", "ms", epoch_us / 1e3));
    layers.push(Metric::new("train.epochs", "count", stamps.len() as f64));
    layers.push(Metric::new("gemm.train_gmadds", "Gmadd/s", madds / fit_s / 1e9));
    layers.push(Metric::new(
        "persist.load_file_ms",
        "ms",
        median(&tr.per_iter("persist.load_file", false)) / 1e6,
    ));
    layers.push(Metric::new("trace.overhead_us", "us", epoch_us - untraced_epoch_us));
    write_spans(&tr, r.workload, args.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uadb_serve::json::{self, Value};

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        let list = |key: &str, with_unit: bool| -> Vec<String> {
            let entries = doc.get(key).and_then(Value::as_array).unwrap();
            entries
                .iter()
                .map(|m| {
                    if with_unit {
                        field(m, "name") + " " + &field(m, "unit")
                    } else {
                        field(m, "name")
                    }
                })
                .collect()
        };
        let pairs = |l: &[(&str, &str)]| -> Vec<String> {
            l.iter().map(|(n, u)| format!("{n} {u}")).collect()
        };
        assert_eq!(list("end_to_end", true), pairs(&END_TO_END));
        assert_eq!(list("per_layer", true), pairs(&LAYERS));
        assert_eq!(list("workloads", false), WORKLOADS);
    }
}
