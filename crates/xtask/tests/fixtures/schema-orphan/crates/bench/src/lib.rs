//! WL004 orphan-section fixture registry: `table1` is registered at
//! v2 only, so EXPERIMENTS.md's leftover v1 section is an orphan.

pub const RECORDED_SCHEMAS: &[(&str, &str)] = &[(
    "<!-- schema: table1-good v2 -->",
    "cargo run --bin table1 -- --record",
)];

pub fn run_recorded_experiment(_schema: &str, _cmd: &str, run: impl FnOnce()) {
    run();
}
