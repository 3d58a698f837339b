//! Open-loop and closed-loop load loops that also report on themselves.
//!
//! The schedule comes from `willump_bench::loadgen::poisson_schedule`.
//! Unlike `willump_bench::loadgen::open_loop`, this generator records per
//! request how late it was sent (actual send minus scheduled time), in
//! schedule order, so a growing backlog and a stalled generator show,
//! and each sender thread charges its own CPU and context switches.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::procfs;

/// What one open-loop run measured.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    pub offered: usize,
    /// Requests whose output was correct.
    pub served: usize,
    /// Errors, sheds and wrong outputs.
    pub failed: usize,
    /// Scheduled-arrival-to-response seconds of served requests,
    /// ascending.
    pub latencies: Vec<f64>,
    /// The same per request in schedule order (`None` when it failed).
    pub by_request: Vec<Option<f64>>,
    /// Send minus scheduled time, seconds, in schedule order.
    pub lateness: Vec<f64>,
    /// On-CPU time and context switches of the sender threads, the
    /// client side of each call (which runs on them) included.
    pub senders: procfs::ThreadUse,
    /// Wall seconds from start to the last response.
    pub wall: f64,
}

/// Offer `arrivals` (seconds from start) from `threads` senders that
/// share the schedule round-robin. `call(i)` sends request `i` and
/// says whether its output was correct.
pub fn open_loop(
    arrivals: &[f64],
    threads: usize,
    call: impl Fn(usize) -> bool + Sync,
) -> OpenLoopReport {
    struct Sent {
        index: usize,
        late: f64,
        latency: Option<f64>,
    }
    let results = Mutex::new(Vec::with_capacity(arrivals.len()));
    let own = Mutex::new(procfs::ThreadUse::default());
    let call = &call;
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let results = &results;
            let own = &own;
            s.spawn(move || {
                let used0 = procfs::read_this_thread();
                let mut mine = Vec::with_capacity(arrivals.len() / threads + 1);
                for (index, &at) in arrivals.iter().enumerate().skip(tid).step_by(threads) {
                    let now = start.elapsed().as_secs_f64();
                    if at > now {
                        std::thread::sleep(Duration::from_secs_f64(at - now));
                    }
                    let late = start.elapsed().as_secs_f64() - at;
                    let ok = call(index);
                    let done = start.elapsed().as_secs_f64();
                    mine.push(Sent {
                        index,
                        late,
                        latency: ok.then_some(done - at),
                    });
                }
                let used = procfs::read_this_thread().since(used0);
                let mut own = own.lock().expect("sender lock not poisoned");
                own.ctx_switches += used.ctx_switches;
                own.cpu_ns += used.cpu_ns;
                results
                    .lock()
                    .expect("sender lock not poisoned")
                    .extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut sent = results.into_inner().expect("sender lock not poisoned");
    sent.sort_by_key(|s| s.index);
    let mut latencies: Vec<f64> = sent.iter().filter_map(|s| s.latency).collect();
    latencies.sort_by(f64::total_cmp);
    OpenLoopReport {
        offered: arrivals.len(),
        served: latencies.len(),
        failed: sent.len() - latencies.len(),
        latencies,
        by_request: sent.iter().map(|s| s.latency).collect(),
        lateness: sent.iter().map(|s| s.late).collect(),
        senders: own.into_inner().expect("sender lock not poisoned"),
        wall,
    }
}

/// Run `call` back to back from `threads` callers for `seconds`;
/// returns (calls made, calls that failed, per-call seconds, the
/// callers' own use).
pub fn closed_loop(
    seconds: f64,
    threads: usize,
    call: impl Fn(usize) -> bool + Sync,
) -> (usize, usize, Vec<f64>, procfs::ThreadUse) {
    let out = Mutex::new((0, 0, Vec::new(), procfs::ThreadUse::default()));
    let call = &call;
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let out = &out;
            s.spawn(move || {
                let used0 = procfs::read_this_thread();
                let (mut n, mut failed, mut times) = (0, 0, Vec::new());
                let mut i = tid;
                while start.elapsed().as_secs_f64() < seconds {
                    let t0 = Instant::now();
                    if !call(i) {
                        failed += 1;
                    }
                    times.push(t0.elapsed().as_secs_f64());
                    n += 1;
                    i += threads;
                }
                let used = procfs::read_this_thread().since(used0);
                let mut out = out.lock().expect("caller lock not poisoned");
                out.0 += n;
                out.1 += failed;
                out.2.extend(times);
                out.3.ctx_switches += used.ctx_switches;
                out.3.cpu_ns += used.cpu_ns;
            });
        }
    });
    out.into_inner().expect("caller lock not poisoned")
}
