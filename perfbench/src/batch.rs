//! The batch-topk workload: one closed-loop caller alternating a
//! cascaded classification batch and a top-K query over the same toxic
//! rows, calling the plans directly (no protocol, no runtime).

use std::time::Instant;

use willump::{topk::exact_top_k, QueryMode, ServingPlan};
use willump_data::Table;
use willump_models::metrics;
use willump_workloads::WorkloadKind;

use crate::layers::{self, PlanCounts};
use crate::metrics::Outcome;
use crate::procfs;
use crate::report;
use crate::serve;
use crate::setup::{self, timed, SetupTimes};
use crate::stack::{same_scores, Requests};
use crate::stats::{mean, median, sorted};
use crate::trace::Tracer;

/// Rows per call.
const ROWS: usize = 2_000;
/// K of the top-K query.
const K: usize = 20;
/// Rows per request, and requests/s, when the same rows are replayed
/// through the serving layers this workload bypasses.
const REPLAY_BATCH: usize = 10;
const REPLAY_RATE: f64 = 200.0;
/// Set-ups per run.
const SETUP_REPS: usize = 3;

struct Plans {
    cascade: ServingPlan,
    topk: ServingPlan,
    table: Table,
    labels: Vec<f64>,
    /// The cascade's scores and the filtered top-K, computed once at
    /// set-up; every later call must return exactly these.
    scores: Vec<f64>,
    ranked: Vec<usize>,
    /// The full model's exact top-K.
    exact: Vec<usize>,
}

fn set_up(seed: u64) -> (Plans, SetupTimes) {
    let mut t = SetupTimes::default();
    let (w, (table, labels)) = timed(&mut t.generate, || {
        (
            setup::training(WorkloadKind::Toxic),
            setup::inputs(WorkloadKind::Toxic, seed, ROWS),
        )
    });
    let (cascade, topk) = timed(&mut t.optimize, || {
        (
            setup::optimize(&w, QueryMode::Batch),
            setup::optimize(&w, QueryMode::TopK { k: K }),
        )
    });
    assert!(cascade.report().cascades_deployed, "toxic cascade deploys");
    assert!(topk.report().filter_deployed, "toxic top-K filter deploys");
    let plans = timed(&mut t.build, || {
        let (cascade, topk) = (cascade.serving_plan(), topk.serving_plan());
        let scores = cascade.predict_batch(&table).expect("cascade runs");
        let ranked = topk.top_k(&table, K).expect("top-K runs").0;
        let exact =
            exact_top_k(topk.executor(), topk.full_model(), &table, K).expect("exact top-K");
        Plans {
            cascade,
            topk,
            table,
            labels,
            scores,
            ranked,
            exact,
        }
    });
    (plans, t)
}

/// Root span names of the two call kinds.
const CALLS: [&str; 2] = ["call.classify", "call.topk"];

/// One call of `kind` 0 (classify) or 1 (top K), traced as operation
/// `op`. Returns whether the output equals the set-up reference.
fn call(p: &Plans, kind: usize, op: u64, tracer: Option<&Tracer>) -> bool {
    let start = tracer.map_or(0, Tracer::now);
    let (ok, report) = if kind == 0 {
        let out = p.cascade.run_batch(&p.table).expect("cascade runs");
        (same_scores(&out.scores, &p.scores), out.report)
    } else {
        let (ranked, report) = p.topk.top_k(&p.table, K).expect("top-K runs");
        (ranked == p.ranked, report)
    };
    if let Some(t) = tracer {
        let end = t.now();
        let root = t.reserve();
        t.record(root, None, op, CALLS[kind], start, end);
        layers::record_plan_run(t, op, Some(root), start, end, &report);
    }
    ok
}

/// What a closed loop measured: seconds of untraced calls by kind
/// (classify, top-K), seconds of traced calls, and the calling
/// thread's on-CPU seconds over the loop.
#[derive(Default)]
struct Calls {
    wall: [Vec<f64>; 2],
    traced: Vec<f64>,
    cpu: f64,
    failed: usize,
}

impl Calls {
    fn count(&self) -> usize {
        self.wall[0].len() + self.wall[1].len() + self.traced.len()
    }

    fn untraced(&self) -> Vec<f64> {
        [self.wall[0].as_slice(), self.wall[1].as_slice()].concat()
    }
}

/// Call back to back for `seconds`, ending on a whole pair. With a
/// tracer, every other pair is traced, so traced and untraced calls
/// meet the same host conditions.
fn closed(p: &Plans, seconds: f64, tracer: Option<&Tracer>) -> Calls {
    let mut calls = Calls::default();
    let used = procfs::read_this_thread();
    let start = Instant::now();
    let mut op = 0;
    loop {
        let kind = op % 2;
        if kind == 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = tracer.filter(|_| (op / 2) % 2 == 0);
        let t0 = Instant::now();
        if !call(p, kind, op as u64, traced) {
            calls.failed += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        match traced {
            Some(_) => calls.traced.push(wall),
            None => calls.wall[kind].push(wall),
        }
        op += 1;
    }
    calls.cpu = procfs::read_this_thread().since(used).cpu_ns as f64 / 1e9;
    calls
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (p, times, setup_s) = setup::repeated(SETUP_REPS, || set_up(seed));
    report::record_setup(&mut out, times);
    let warm = closed(&p, 0.3, None);
    out.count(warm.count(), warm.failed);

    let accuracy = metrics::accuracy(&p.scores, &p.labels);
    let precision = metrics::precision_at_k(&p.ranked, &p.exact);
    if traced {
        run_traced(&p, seed, seconds, &mut out);
    } else {
        // Median per-call times of each kind (one pair of calls scores
        // the rows twice) and the caller's CPU per call.
        let c = closed(&p, seconds, None);
        out.count(c.count(), c.failed);
        let wall = [median(&c.wall[0]), median(&c.wall[1])];
        let cpu = c.cpu * 1e6 / c.count() as f64;
        let rows_per_s = 2.0 * ROWS as f64 / (wall[0] + wall[1]);
        out.set("cpu_us_per_req", cpu, "us");
        out.set("rows_per_s", rows_per_s, "1/s");
        out.set("classify_rows_per_s", ROWS as f64 / wall[0], "1/s");
        out.set("topk_qps", 1.0 / wall[1], "1/s");
        out.set("accuracy", accuracy, "frac");
        out.set("topk_precision", precision, "frac");
    }
    out.set("setup_s", setup_s, "s");
    out.set("rss_mb", report::rss_mb(), "MB");
    out
}

fn run_traced(p: &Plans, seed: u64, seconds: f64, out: &mut Outcome) {
    let tracer = Tracer::new();
    let c = closed(p, seconds * 0.6, Some(&tracer));
    out.count(c.count(), c.failed);
    let untraced = c.untraced();
    report::record_latency(out, &sorted(&untraced));
    // A closed loop's highest rate is its untraced call rate; one pair
    // of calls scores the rows twice.
    out.set(
        "max_rps",
        untraced.len() as f64 / untraced.iter().sum::<f64>(),
        "1/s",
    );
    out.set(
        "rows_per_s",
        2.0 * ROWS as f64 / (median(&c.wall[0]) + median(&c.wall[1])),
        "1/s",
    );

    // The same rows replayed layer by layer: each plan once over the
    // whole table, as the workload calls it.
    let plan_tracer = Tracer::new();
    let mut counts = PlanCounts::default();
    let whole = std::slice::from_ref(&p.table);
    layers::replay_plan(&plan_tracer, &p.cascade, whole, None, 0, &mut counts);
    layers::replay_plan(&plan_tracer, &p.topk, whole, Some(K), 1, &mut counts);
    report::record_plan(out, &plan_tracer.into_spans(), counts);

    // As small requests through the codecs and the cascade plan, the
    // standalone parts of a runtime call.
    let order: Vec<usize> = (0..ROWS).collect();
    let reqs = Requests::cut(
        &p.table,
        &p.labels,
        &p.scores,
        &order,
        REPLAY_BATCH,
        ROWS / REPLAY_BATCH,
    );
    let request_tracer = Tracer::new();
    let bytes = layers::replay_codecs(&request_tracer, &reqs.requests, &reqs.reference, 0);
    let tables: Vec<Table> = reqs.rows.iter().map(|r| p.table.take_rows(r)).collect();
    layers::replay_plan(
        &request_tracer,
        &p.cascade,
        &tables,
        None,
        0,
        &mut PlanCounts::default(),
    );
    let request_spans = request_tracer.into_spans();
    report::record_codecs(out, &request_spans, bytes);

    // This workload bypasses the runtime and the remote hop; time them
    // on the same rows, as requests, so every layer reports.
    let hop_secs = seconds * 0.15;
    let runtime_tracer = Tracer::new();
    let local = serve::replay_through(
        &p.cascade,
        &reqs,
        REPLAY_RATE,
        hop_secs,
        seed,
        false,
        Some(&runtime_tracer),
    );
    out.count(local.load.offered, local.load.failed);
    let remote = serve::replay_through(&p.cascade, &reqs, REPLAY_RATE, hop_secs, seed, true, None);
    out.count(remote.load.offered, remote.load.failed);

    report::record_runtime(out, &runtime_tracer.into_spans(), &request_spans, &local);
    report::record_remote(out, &remote);
    report::record_phase_guards(out, &local);
    let spans = tracer.into_spans();
    let stages: Vec<String> = layers::STAGE_KEYS
        .iter()
        .chain(&["other"])
        .map(|k| format!("plan.{k}"))
        .collect();
    let mut layer_names = vec![CALLS[0], CALLS[1], "plan.run"];
    layer_names.extend(stages.iter().map(String::as_str));
    // A closed loop sends on time: no lateness.
    report::record_trace_checks(out, &spans, &layer_names, &untraced, &c.traced, &[], mean);
    report::write_spans(&spans, "batch-topk", seed);
}
