//! Per-layer and end-to-end figures computed from spans, phases and
//! `/proc`, shared by the workloads.

use std::collections::BTreeMap;

use crate::layers::{self, PlanCounts, WireBytes};
use crate::metrics::Outcome;
use crate::procfs;
use crate::setup::SetupTimes;
use crate::stack::Phase;
use crate::stats::{backlog_growing, median, quantile, sorted, supported_tail};
use crate::trace::{self, Span};

/// Layers must add up to the end-to-end time within this share.
pub const ADD_UP_TOLERANCE: f64 = 0.25;

pub fn rss_mb() -> f64 {
    procfs::read_self_status().vm_hwm_kb as f64 / 1024.0
}

pub fn record_setup(out: &mut Outcome, t: SetupTimes) {
    out.set("setup.generate_s", t.generate, "s");
    out.set("setup.optimize_s", t.optimize, "s");
    out.set("setup.build_s", t.build, "s");
}

/// Latency percentiles of ascending samples, seconds: the median and
/// p99, with the highest tail the sample supports stated.
pub fn record_latency(out: &mut Outcome, latencies: &[f64]) {
    out.set("lat_p50_ms", quantile(latencies, 0.5) * 1e3, "ms");
    out.set("lat_p99_ms", quantile(latencies, 0.99) * 1e3, "ms");
    println!(
        "info latency: {} samples, highest supported tail p{}",
        latencies.len(),
        supported_tail(latencies.len()).map_or(0.0, |q| q * 100.0)
    );
}

/// The generator and host guards: send lateness (schedule order),
/// the senders' share of the host's cores, and host steal.
pub fn record_guards(out: &mut Outcome, lateness: &[f64], sender_ns: u64, wall: f64, steal: f64) {
    let late = sorted(lateness);
    out.set("loadgen.late_p50_us", quantile(&late, 0.5) * 1e6, "us");
    out.set("loadgen.late_p99_us", quantile(&late, 0.99) * 1e6, "us");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    out.set(
        "loadgen.cpu_frac",
        sender_ns as f64 / 1e9 / (wall * cores as f64),
        "frac",
    );
    out.set("host.steal_frac", steal, "frac");
    println!(
        "info generator: {} sends, growing backlog {}",
        late.len(),
        backlog_growing(lateness)
    );
}

/// [`record_guards`] of one open-loop phase.
pub fn record_phase_guards(out: &mut Outcome, p: &Phase) {
    record_guards(
        out,
        &p.load.lateness,
        p.load.senders.cpu_ns,
        p.load.wall,
        p.usage.steal_frac,
    );
}

/// Latencies of the served even-indexed (traced) and odd-indexed
/// (untraced) requests of a phase.
pub fn split_alternate(by_request: &[Option<f64>]) -> (Vec<f64>, Vec<f64>) {
    let (mut even, mut odd) = (Vec::new(), Vec::new());
    for (i, latency) in by_request.iter().enumerate() {
        if let Some(l) = latency {
            if i % 2 == 0 {
                even.push(*l)
            } else {
                odd.push(*l)
            }
        }
    }
    (even, odd)
}

/// Median self time in microseconds of the spans named `name`.
fn median_us(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    let times: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t as f64 / 1e3)
        .collect();
    median(&times)
}

/// Codec metrics from a standalone replay of requests.
pub fn record_codecs(out: &mut Outcome, spans: &[Span], bytes: WireBytes) {
    let selfs = trace::self_times(spans);
    let per = |name: &str| median_us(spans, &selfs, name);
    for op in ["enc_req", "dec_req", "enc_resp", "dec_resp"] {
        out.set(
            &format!("protocol.{op}_us"),
            per(&format!("protocol.{op}")),
            "us",
        );
        out.set(&format!("wire2.{op}_us"), per(&format!("wire2.{op}")), "us");
    }
    out.set("protocol.req_bytes", bytes.json_req as f64, "bytes");
    out.set("protocol.resp_bytes", bytes.json_resp as f64, "bytes");
    out.set("wire2.req_bytes", bytes.wire2_req as f64, "bytes");
}

/// Plan, graph and model metrics from a standalone plan replay:
/// microseconds per input row, and the plan's resolution shares.
pub fn record_plan(out: &mut Outcome, spans: &[Span], counts: PlanCounts) {
    let selfs = trace::self_times(spans);
    let rows = counts.rows.max(1) as f64;
    let per_row = |name: &str| {
        let total: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum();
        total as f64 / 1e3 / rows
    };
    for key in layers::STAGE_KEYS {
        let name = format!("plan.{key}");
        out.set(&format!("{name}.us_per_row"), per_row(&name), "us");
    }
    out.set(
        "plan.gate_resolved_frac",
        counts.gate_resolved as f64 / counts.gated_rows.max(1) as f64,
        "frac",
    );
    out.set(
        "plan.escalated_frac",
        counts.escalated as f64 / rows,
        "frac",
    );
    out.set(
        "plan.filter_kept_frac",
        counts.filter_kept as f64 / counts.filter_batch.max(1) as f64,
        "frac",
    );
    out.set(
        "graph.features_us_per_row.efficient",
        per_row("graph.features.efficient"),
        "us",
    );
    out.set(
        "graph.features_us_per_row.full",
        per_row("graph.features.full"),
        "us",
    );
    out.set("models.small_us_per_row", per_row("models.small"), "us");
    out.set("models.full_us_per_row", per_row("models.full"), "us");
    println!(
        "info replayed {} rows through the plan layer by layer",
        counts.rows
    );
}

/// Runtime metrics: call latency from the `runtime.call` spans of a
/// traced phase; the residual is the median call minus the medians of
/// the standalone request decode, plan run and response encode of the
/// same requests in `replay`.
pub fn record_runtime(out: &mut Outcome, spans: &[Span], replay: &[Span], p: &Phase) {
    let mut calls: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "runtime.call")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    calls.sort_by(f64::total_cmp);
    out.set("runtime.call_p50_us", quantile(&calls, 0.5), "us");
    out.set("runtime.call_p99_us", quantile(&calls, 0.99), "us");
    let selfs = trace::self_times(replay);
    let plan_runs: Vec<f64> = replay
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "plan.run")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    let inside = median_us(replay, &selfs, "protocol.dec_req")
        + median_us(replay, &selfs, "protocol.enc_resp")
        + median(&plan_runs);
    out.set("runtime.residual_us", quantile(&calls, 0.5) - inside, "us");
    let st = &p.exec_stats;
    out.set(
        "runtime.rows_per_batch",
        st.rows as f64 / st.batches.max(1) as f64,
        "rows",
    );
    out.set("runtime.max_batch_rows", st.max_batch_rows as f64, "rows");
    out.set("runtime.shed", p.stats.shed as f64, "count");
    out.set("runtime.degraded", p.stats.degraded as f64, "count");
    out.set(
        "proc.ctx_switches_per_req",
        p.ctx_switches() as f64 / p.load.offered.max(1) as f64,
        "count",
    );
}

/// Remote-hop metrics of a phase through a remote-sharded stack.
pub fn record_remote(out: &mut Outcome, p: &Phase) {
    let forwards = p.forward.1.max(1) as f64;
    let rtt = p.forward.0 as f64 / forwards / 1e3;
    let node = p.node.0 as f64 / p.node.1.max(1) as f64 / 1e3;
    out.set("remote.forward_rtt_us", rtt, "us");
    out.set("remote.hop_residual_us", rtt - node, "us");
    let cpu = p.usage.cpu;
    out.set(
        "remote.sys_frac",
        cpu.sys_secs() / cpu.total_secs().max(1e-9),
        "frac",
    );
    out.set(
        "remote.transport_errors",
        p.stats.transport_errors as f64,
        "count",
    );
    out.set("remote.failovers", p.stats.failovers as f64, "count");
    out.set(
        "remote.max_in_flight",
        p.stats.remote_max_in_flight as f64,
        "count",
    );
}

/// Tracing overhead (traced minus untraced end-to-end time, as a share
/// of untraced; the two are interleaved operations of one phase) and
/// the add-up check: per traced operation, the self times of its
/// `layers` spans plus its send lateness, against the untraced
/// end-to-end time. `summary` reduces each distribution
/// (seconds) to one figure: the median where host stalls put outliers
/// in the tail, the mean where they do not. Operation `i` has trace id
/// `i` and lateness `lateness[i]` (none for a closed loop).
pub fn record_trace_checks(
    out: &mut Outcome,
    spans: &[Span],
    layers: &[&str],
    untraced: &[f64],
    traced: &[f64],
    lateness: &[f64],
    summary: fn(&[f64]) -> f64,
) {
    let (untraced, traced) = (summary(untraced), summary(traced));
    out.set(
        "trace.overhead_frac",
        (traced - untraced) / untraced,
        "frac",
    );
    let selfs = trace::self_times(spans);
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        if let Some(name) = layers.iter().find(|n| **n == s.name) {
            let secs = t as f64 / 1e9;
            *per_op.entry(s.trace).or_insert(0.0) += secs;
            per_layer.entry(name).or_default().push(secs);
        }
    }
    for (name, times) in &per_layer {
        println!(
            "info self time {name}: {:.1} us per span ({} spans)",
            summary(times) * 1e6,
            times.len()
        );
    }
    let totals: Vec<f64> = per_op
        .iter()
        .map(|(&op, t)| t + lateness.get(op as usize).copied().unwrap_or(0.0))
        .collect();
    let sum = summary(&totals);
    let err = (sum - untraced).abs() / untraced;
    out.set("trace.layer_sum_err_frac", err, "frac");
    println!(
        "info layers add up: {:.1} us per operation vs end-to-end {:.1} us untraced \
         ({:.1}% off, tolerance {:.0}%): {}; tracing overhead {:.1} us",
        sum * 1e6,
        untraced * 1e6,
        err * 100.0,
        ADD_UP_TOLERANCE * 100.0,
        if err <= ADD_UP_TOLERANCE {
            "ok"
        } else {
            "over tolerance"
        },
        (traced - untraced) * 1e6
    );
}

/// Write the spans under the benchmark's own output directory.
pub fn write_spans(spans: &[Span], workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.jsonl"));
    match trace::write_spans(&path, spans) {
        Ok(()) => println!("info wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => println!("info could not write spans to {}: {e}", path.display()),
    }
}
