//! The serve workloads: the product cascade plan behind a 2-worker
//! runtime, offered open-loop Poisson traffic of JSON requests.

use willump::{QueryMode, ServingPlan};
use willump_bench::loadgen::poisson_schedule;
use willump_data::Table;
use willump_workloads::WorkloadKind;

use crate::layers::{self, PlanCounts};
use crate::metrics::Outcome;
use crate::report;
use crate::setup::{self, timed, SetupTimes};
use crate::stack::{self, Phase, Requests, Stack};
use crate::stats::{backlog_growing, median, quantile, sorted};
use crate::trace::Tracer;

/// Sender threads of the open-loop generator.
const SENDERS: usize = 2;
/// Served input rows per run.
const POOL: usize = 2_000;
/// Shares of an untraced run for the reference rate and the ladder.
const REFERENCE_SHARE: f64 = 0.6;
const LADDER_SHARE: f64 = 0.4;
/// Slices of the reference-rate phase.
const SLICES: usize = 10;
/// Set-ups per run (set-up is quick here).
const SETUP_REPS: usize = 7;
/// Requests replayed through the standalone layer timings.
const REPLAY: usize = 400;

pub struct ServeSpec {
    /// Endpoint shards are remote (served by a loopback node).
    pub remote: bool,
    /// Rows per request.
    pub batch: usize,
    /// Offered requests/s at which latency and CPU are reported.
    pub ref_rate: f64,
    /// Offered rates tried for `max_rps`, ascending.
    pub ladder: &'static [f64],
    /// p99 latency limit a ladder rung must meet, seconds.
    pub p99_limit: f64,
}

pub const B1: ServeSpec = ServeSpec {
    remote: false,
    batch: 1,
    ref_rate: 2_000.0,
    ladder: &[1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0],
    p99_limit: 0.010,
};

pub const REMOTE: ServeSpec = ServeSpec {
    remote: true,
    batch: 10,
    ref_rate: 400.0,
    ladder: &[200.0, 400.0, 600.0, 800.0, 1_000.0, 1_200.0, 1_600.0],
    p99_limit: 0.025,
};

struct Served {
    plan: ServingPlan,
    pool: Table,
    stack: Stack,
    reqs: Requests,
}

fn set_up(spec: &ServeSpec, seed: u64) -> (Served, SetupTimes) {
    let mut t = SetupTimes::default();
    let (w, (pool, labels)) = timed(&mut t.generate, || {
        (
            setup::training(WorkloadKind::Product),
            setup::inputs(WorkloadKind::Product, seed, POOL),
        )
    });
    let opt = timed(&mut t.optimize, || {
        setup::optimize(&w, QueryMode::ExampleAtATime)
    });
    let served = timed(&mut t.build, || {
        let plan = opt.serving_plan();
        let reference = plan.predict_batch(&pool).expect("reference scores");
        let order = setup::permutation(POOL, seed);
        let n = (POOL / spec.batch).max(REPLAY);
        let reqs = Requests::cut(&pool, &labels, &reference, &order, spec.batch, n);
        let stack = Stack::build(&plan, spec.remote);
        Served {
            plan,
            pool,
            stack,
            reqs,
        }
    });
    (served, t)
}

pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (s, times, setup_s) = setup::repeated(SETUP_REPS, || set_up(spec, seed));
    report::record_setup(&mut out, times);

    // Warm-up: fill caches and start every thread before measuring.
    let warm = poisson_schedule(spec.ref_rate, (spec.ref_rate * 0.3) as usize, seed ^ 1);
    let w = stack::open_phase(&s.stack, &s.reqs, &warm, SENDERS, 0, None);
    out.count(w.load.offered, w.load.failed);

    if traced {
        run_traced(spec, &s, seed, seconds, &mut out);
    } else {
        run_untraced(spec, &s, seed, seconds, &mut out);
    }
    out.set("setup_s", setup_s, "s");
    out.set("rss_mb", report::rss_mb(), "MB");
    out
}

fn run_untraced(spec: &ServeSpec, s: &Served, seed: u64, seconds: f64, out: &mut Outcome) {
    let (mut correct_rows, mut served_rows) = (0, 0);
    let mut tally = |out: &mut Outcome, p: &Phase| {
        out.count(p.load.offered, p.load.failed);
        correct_rows += p.correct_rows;
        served_rows += (p.load.served * s.reqs.rows_per_request()) as u64;
    };

    // Reference rate, in slices: the median slice gives CPU per
    // request; latency and the generator guards pool every slice.
    let slice = seconds * REFERENCE_SHARE / SLICES as f64;
    let (mut cpu, mut latencies, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sender_ns, mut wall, mut steal) = (0, 0.0, Vec::new());
    for k in 0..SLICES {
        let n = (spec.ref_rate * slice) as usize;
        let arrivals = poisson_schedule(spec.ref_rate, n, seed ^ ((k as u64) << 8));
        let p = stack::open_phase(&s.stack, &s.reqs, &arrivals, SENDERS, k * n, None);
        tally(out, &p);
        cpu.push(p.cpu_secs() * 1e6 / p.load.offered as f64);
        latencies.extend_from_slice(&p.load.latencies);
        lateness.extend_from_slice(&p.load.lateness);
        sender_ns += p.load.senders.cpu_ns;
        wall += p.load.wall;
        steal.push(p.usage.steal_frac);
    }
    out.set("cpu_us_per_req", median(&cpu), "us");
    latencies.sort_by(f64::total_cmp);
    report::record_latency(out, &latencies);
    report::record_guards(out, &lateness, sender_ns, wall, median(&steal));

    let max_rps = ladder(spec, s, seed, seconds * LADDER_SHARE, &mut |p| {
        tally(out, p)
    });
    out.set("max_rps", max_rps, "1/s");

    out.set(
        "accuracy",
        correct_rows as f64 / served_rows.max(1) as f64,
        "frac",
    );
}

/// The highest rung of the ladder that, with every rung below it, meets
/// the p99 limit with nothing failed and no growing backlog (0 when the
/// first rung fails). Every rung runs, so the ladder takes `secs`.
fn ladder(
    spec: &ServeSpec,
    s: &Served,
    seed: u64,
    secs: f64,
    tally: &mut dyn FnMut(&Phase),
) -> f64 {
    let rung_secs = secs / spec.ladder.len() as f64;
    let (mut max_rps, mut passing) = (0.0, true);
    for (i, &rate) in spec.ladder.iter().enumerate() {
        let arrivals = poisson_schedule(rate, (rate * rung_secs) as usize, seed ^ (i as u64 + 2));
        let p = stack::open_phase(&s.stack, &s.reqs, &arrivals, SENDERS, 0, None);
        tally(&p);
        let p99 = quantile(&p.load.latencies, 0.99);
        let backlog = backlog_growing(&p.load.lateness);
        let pass = p.load.failed == 0 && p99 <= spec.p99_limit && !backlog;
        println!(
            "info ladder {rate} req/s: p99 {:.3} ms of {} samples, backlog {backlog}, {}",
            p99 * 1e3,
            p.load.latencies.len(),
            if pass { "pass" } else { "fail" }
        );
        passing &= pass;
        if passing {
            max_rps = rate;
        }
    }
    max_rps
}

fn run_traced(spec: &ServeSpec, s: &Served, seed: u64, seconds: f64, out: &mut Outcome) {
    // Every other request traced: the difference between the halves is
    // the tracing overhead.
    let phase_secs = seconds * 0.2;
    let n = (spec.ref_rate * 2.0 * phase_secs) as usize;
    let arrivals = poisson_schedule(spec.ref_rate, n, seed);
    let tracer = Tracer::new();
    let p = stack::open_phase(&s.stack, &s.reqs, &arrivals, SENDERS, 0, Some(&tracer));
    out.count(p.load.offered, p.load.failed);
    let (traced, untraced) = report::split_alternate(&p.load.by_request);
    report::record_phase_guards(out, &p);
    report::record_latency(out, &sorted(&untraced));
    let max_rps = ladder(spec, s, seed, seconds * 0.2, &mut |p| {
        out.count(p.load.offered, p.load.failed);
    });
    out.set("max_rps", max_rps, "1/s");

    // Back to back from one caller: rows over the median round trip,
    // the rate one client gets. (Two callers on two cores collapse
    // under host steal, so their rate does not repeat.)
    let closed = stack::closed_phase(&s.stack, &s.reqs, seconds * 0.1, 1);
    out.count(closed.load.offered, closed.load.failed);
    out.set(
        "rows_per_s",
        s.reqs.rows_per_request() as f64 / median(&closed.load.latencies),
        "1/s",
    );

    // Standalone replay of the same requests, layer by layer.
    let n = REPLAY.min(s.reqs.requests.len());
    let tables: Vec<Table> = s.reqs.rows[..n]
        .iter()
        .map(|rows| s.pool.take_rows(rows))
        .collect();
    let replay_base = 1 << 40;
    let bytes = layers::replay_codecs(
        &tracer,
        &s.reqs.requests[..n],
        &s.reqs.reference[..n],
        replay_base,
    );
    let mut counts = PlanCounts::default();
    layers::replay_plan(
        &tracer,
        &s.plan,
        &tables,
        None,
        replay_base + n as u64,
        &mut counts,
    );
    let spans = tracer.into_spans();
    report::record_codecs(out, &spans, bytes);
    report::record_plan(out, &spans, counts);
    report::record_runtime(out, &spans, &spans, &p);
    report::record_trace_checks(
        out,
        &spans,
        &["request", "client.encode", "runtime.call", "client.decode"],
        &untraced,
        &traced,
        &p.load.lateness,
        median,
    );

    // The remote hop: this workload's own traffic when its shards are
    // remote, else the same requests through a remote-sharded stack.
    if spec.remote {
        report::record_remote(out, &p);
    } else {
        let hop = replay_through(
            &s.plan,
            &s.reqs,
            spec.ref_rate,
            phase_secs,
            seed,
            true,
            None,
        );
        out.count(hop.load.offered, hop.load.failed);
        report::record_remote(out, &hop);
    }
    report::write_spans(
        &spans,
        if spec.remote {
            "serve-remote"
        } else {
            "serve-b1"
        },
        seed,
    );
}

/// Offer `reqs` at `rate` for `secs` through a fresh stack over `plan`
/// (remote-sharded with `remote`), after a short warm-up.
pub fn replay_through(
    plan: &ServingPlan,
    reqs: &Requests,
    rate: f64,
    secs: f64,
    seed: u64,
    remote: bool,
    tracer: Option<&Tracer>,
) -> Phase {
    let stack = Stack::build(plan, remote);
    let warm = poisson_schedule(rate, (rate * 0.2).ceil() as usize, seed ^ 3);
    stack::open_phase(&stack, reqs, &warm, SENDERS, 0, None);
    let arrivals = poisson_schedule(rate, (rate * secs).ceil() as usize, seed ^ 4);
    stack::open_phase(&stack, reqs, &arrivals, SENDERS, 0, tracer)
}
