//! The metric names the benchmark reports and the result line.

/// End-to-end metrics, printed in the result line of `--trace 0` runs.
/// Every workload reports each of them (README.md gives the
/// per-workload meaning).
pub const END_TO_END: &[&str] = &["setup_s", "rss_mb", "cpu_us_per_req", "accuracy"];

/// Per-layer metrics, printed in the result line of `--trace 1` runs.
pub const PER_LAYER: &[&str] = &[
    "setup.generate_s",
    "setup.optimize_s",
    "setup.build_s",
    "protocol.enc_req_us",
    "protocol.dec_req_us",
    "protocol.enc_resp_us",
    "protocol.dec_resp_us",
    "protocol.req_bytes",
    "protocol.resp_bytes",
    "runtime.call_p50_us",
    "runtime.call_p99_us",
    "runtime.residual_us",
    "runtime.rows_per_batch",
    "runtime.max_batch_rows",
    "runtime.shed",
    "runtime.degraded",
    "proc.ctx_switches_per_req",
    "plan.features_efficient.us_per_row",
    "plan.predict_small.us_per_row",
    "plan.select.us_per_row",
    "plan.escalate.us_per_row",
    "plan.predict_full.us_per_row",
    "plan.gate_resolved_frac",
    "plan.escalated_frac",
    "plan.filter_kept_frac",
    "graph.features_us_per_row.efficient",
    "graph.features_us_per_row.full",
    "models.small_us_per_row",
    "models.full_us_per_row",
    "wire2.enc_req_us",
    "wire2.dec_req_us",
    "wire2.enc_resp_us",
    "wire2.dec_resp_us",
    "wire2.req_bytes",
    "remote.forward_rtt_us",
    "remote.hop_residual_us",
    "remote.sys_frac",
    "remote.transport_errors",
    "remote.failovers",
    "remote.max_in_flight",
    "loadgen.late_p50_us",
    "loadgen.late_p99_us",
    "loadgen.cpu_frac",
    "host.steal_frac",
    "lat_p50_ms",
    "lat_p99_ms",
    "max_rps",
    "rows_per_s",
    "trace.overhead_frac",
    "trace.layer_sum_err_frac",
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    values: Vec<(String, f64, &'static str)>,
    /// Operations attempted in the measured phases.
    attempted: u64,
    /// Errors, sheds and wrong outputs among them.
    failed: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_string(), value, unit));
    }

    /// Count a phase's operations.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }

    /// Print every metric, then the result line. The run is correct
    /// when every output matched its reference.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!("workload {workload} seed {seed} trace {}", u8::from(trace));
        for (name, value, unit) in &self.values {
            println!("metric {name} {value} {unit}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric failed_frac {failed_frac} frac");
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let (value, unit) = self
                    .get(name)
                    .unwrap_or_else(|| panic!("workload {workload} did not measure {name}"));
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
