//! Standalone replays that time one layer at a time on a workload's own
//! inputs, as spans: the JSON protocol codec, the wire2 codec, a plan
//! run with its `PlanRunReport` stages as children, `features_batch`
//! and `predict_scores`.

use std::hint::black_box;

use willump::{PlanRunReport, ServingPlan};
use willump_data::Table;
use willump_serve::{
    decode_request, decode_response, encode_request, encode_response, wire2, Request, Response,
};

use crate::stack::ENDPOINT;
use crate::trace::Tracer;

/// The response a correct runtime sends for a request.
fn response_for(req: &Request, scores: &[f64]) -> Response {
    Response {
        id: req.id,
        scores: scores.to_vec(),
        error: None,
        endpoint: Some(ENDPOINT.to_string()),
        version: Some(1),
        counters: None,
        degraded: false,
        overloaded: false,
    }
}

/// Byte sizes of one request and its response in each codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireBytes {
    pub json_req: usize,
    pub json_resp: usize,
    pub wire2_req: usize,
}

/// Encode and decode each request and its response with the JSON
/// protocol codec and the wire2 codec, one span per operation. Returns
/// the mean byte sizes.
pub fn replay_codecs(
    tracer: &Tracer,
    requests: &[Request],
    reference: &[Vec<f64>],
    trace_base: u64,
) -> WireBytes {
    let mut bytes = WireBytes::default();
    for (i, (req, scores)) in requests.iter().zip(reference).enumerate() {
        let trace = trace_base + i as u64;
        let resp = response_for(req, scores);
        let json = tracer.span(trace, None, "protocol.enc_req", |_| {
            encode_request(black_box(req)).expect("request encodes")
        });
        tracer.span(trace, None, "protocol.dec_req", |_| {
            black_box(decode_request(&json).expect("request decodes"))
        });
        let json_resp = tracer.span(trace, None, "protocol.enc_resp", |_| {
            encode_response(black_box(&resp)).expect("response encodes")
        });
        tracer.span(trace, None, "protocol.dec_resp", |_| {
            black_box(decode_response(&json_resp).expect("response decodes"))
        });
        let w2 = tracer.span(trace, None, "wire2.enc_req", |_| {
            wire2::encode_request_payload(black_box(req))
        });
        tracer.span(trace, None, "wire2.dec_req", |_| {
            black_box(wire2::decode_request_payload(&w2).expect("request decodes"))
        });
        let w2_resp = tracer.span(trace, None, "wire2.enc_resp", |_| {
            wire2::encode_response_payload(black_box(&resp))
        });
        tracer.span(trace, None, "wire2.dec_resp", |_| {
            black_box(wire2::decode_response_payload(&w2_resp).expect("response decodes"))
        });
        bytes.json_req += json.len();
        bytes.json_resp += json_resp.len();
        bytes.wire2_req += w2.len();
    }
    let n = requests.len().max(1);
    WireBytes {
        json_req: bytes.json_req / n,
        json_resp: bytes.json_resp / n,
        wire2_req: bytes.wire2_req / n,
    }
}

/// Canonical metric name of a plan stage label (labels carry tuning
/// values such as the gate threshold, which metric names must not).
fn stage_key(label: &str) -> &'static str {
    match label {
        "compute_features(efficient)" => "features_efficient",
        "compute_features(full)" => "features_full",
        "predict(small)" => "predict_small",
        "predict(full)" | "predict(selected)" => "predict_full",
        "escalate" => "escalate",
        l if l.starts_with("confidence_gate") || l.starts_with("topk_filter") => "select",
        _ => "other",
    }
}

/// The stage keys the benchmark reports, in plan order.
pub const STAGE_KEYS: [&str; 5] = [
    "features_efficient",
    "predict_small",
    "select",
    "escalate",
    "predict_full",
];

/// Record a plan run that took `[start, end)` as a `plan.run` span
/// under `parent`, with one child span per stage laid end to end from
/// the run's start, as the stage traces report them.
pub fn record_plan_run(
    tracer: &Tracer,
    trace: u64,
    parent: Option<usize>,
    start: u64,
    end: u64,
    report: &PlanRunReport,
) {
    let run = tracer.reserve();
    tracer.record(run, parent, trace, "plan.run", start, end);
    let mut t = start;
    for stage in &report.stages {
        let dur = (stage.seconds * 1e9) as u64;
        let id = tracer.reserve();
        let name = format!("plan.{}", stage_key(&stage.label));
        tracer.record(id, Some(run), trace, &name, t, (t + dur).min(end));
        t += dur;
    }
}

/// Counts the plan reports carry, summed over runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCounts {
    pub rows: usize,
    /// Rows of runs that passed a confidence gate.
    pub gated_rows: usize,
    pub gate_resolved: usize,
    pub escalated: usize,
    pub filter_batch: usize,
    pub filter_kept: usize,
}

impl PlanCounts {
    pub fn add(&mut self, rows: usize, report: &PlanRunReport) {
        self.rows += rows;
        if report
            .stages
            .iter()
            .any(|s| s.label.starts_with("confidence_gate"))
        {
            self.gated_rows += rows;
            self.gate_resolved += report.gate_resolved;
        }
        self.escalated += report.escalated;
        self.filter_batch += report.filter_batch.unwrap_or(0);
        self.filter_kept += report.filter_kept.unwrap_or(0);
    }
}

/// Run the plan over each table (top-K with `k` when given), tracing
/// the run and its stages, and time the executor's feature
/// computation and both models on the same rows.
pub fn replay_plan(
    tracer: &Tracer,
    plan: &ServingPlan,
    tables: &[Table],
    k: Option<usize>,
    trace_base: u64,
    counts: &mut PlanCounts,
) {
    let exec = plan.executor();
    let efficient = plan.efficient_set().map(<[usize]>::to_vec);
    for (i, table) in tables.iter().enumerate() {
        let trace = trace_base + i as u64;
        let start = tracer.now();
        let report = match k {
            Some(k) => plan.top_k(table, k).expect("top-k runs").1,
            None => plan.run_batch(table).expect("plan runs").report,
        };
        record_plan_run(tracer, trace, None, start, tracer.now(), &report);
        counts.add(table.n_rows(), &report);

        if let (Some(eff), Some(small)) = (&efficient, plan.small_model()) {
            let feats = tracer.span(trace, None, "graph.features.efficient", |_| {
                exec.features_batch(table, Some(eff))
                    .expect("efficient features")
            });
            tracer.span(trace, None, "models.small", |_| {
                black_box(small.predict_scores(&feats))
            });
        }
        let feats = tracer.span(trace, None, "graph.features.full", |_| {
            exec.features_batch(table, None).expect("full features")
        });
        tracer.span(trace, None, "models.full", |_| {
            black_box(plan.full_model().predict_scores(&feats))
        });
    }
}
