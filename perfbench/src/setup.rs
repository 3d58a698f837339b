//! Set-up: generate the workload, optimize its pipeline, build what
//! serves it. Set-up runs several times per benchmark run and reports
//! medians, so work moved into set-up shows in `setup_s`.

use std::time::Instant;

use willump::{OptimizedPipeline, QueryMode, Willump, WillumpConfig};
use willump_data::Table;
use willump_workloads::{Workload, WorkloadConfig, WorkloadKind};

use crate::stats::median;

/// Training data (and so the optimized pipeline) is the same in every
/// run; the benchmark seed draws only the inputs that are served.
const TRAIN_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub optimize: f64,
    pub build: f64,
}

impl SetupTimes {
    pub fn total(self) -> f64 {
        self.generate + self.optimize + self.build
    }
}

/// The workload the pipeline is trained and tuned on.
pub fn training(kind: WorkloadKind) -> Workload {
    kind.generate(&WorkloadConfig {
        n_train: 2_000,
        n_valid: 1_000,
        n_test: 1,
        seed: TRAIN_SEED,
        remote: None,
    })
    .expect("training workload generates")
}

/// `n` served input rows and their labels, drawn from the same
/// generator as the training data with the benchmark seed.
pub fn inputs(kind: WorkloadKind, seed: u64, n: usize) -> (Table, Vec<f64>) {
    let w = kind
        .generate(&WorkloadConfig {
            n_train: 200,
            n_valid: 1,
            n_test: n,
            seed: seed ^ 0x5EED_0000_0000,
            remote: None,
        })
        .expect("input workload generates");
    (w.test, w.test_y)
}

pub fn optimize(w: &Workload, mode: QueryMode) -> OptimizedPipeline {
    Willump::new(WillumpConfig {
        mode,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimization succeeds")
}

/// A seeded permutation of `0..n` (Fisher-Yates over splitmix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Times one set-up step.
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// Run `setup` `reps` times, keeping the last result. Returns it with
/// the per-step medians and the median total.
pub fn repeated<T>(
    reps: usize,
    mut setup: impl FnMut() -> (T, SetupTimes),
) -> (T, SetupTimes, f64) {
    let mut runs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Free the previous set-up first so each starts alike.
        drop(last.take());
        let (value, times) = setup();
        runs.push(times);
        last = Some(value);
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let medians = SetupTimes {
        generate: pick(|t| t.generate),
        optimize: pick(|t| t.optimize),
        build: pick(|t| t.build),
    };
    let total = pick(|t| t.total());
    (last.expect("at least one set-up"), medians, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(100, 7);
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
