//! The serving stack under test and the request phases driven through
//! it: a `ServingRuntime` over a plan, with local shards or with remote
//! shards served by an in-process `RemoteRuntimeNode` over loopback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use willump::ServingPlan;
use willump_data::Table;
use willump_serve::{
    decode_response, encode_request, table_row_to_wire, RemoteRuntimeNode, Request, RuntimeClient,
    ServerConfig, ServerStatsSnapshot, ServingRuntime,
};

use crate::loadgen::{self, OpenLoopReport};
use crate::procfs::{Usage, UsageDelta};
use crate::trace::Tracer;

pub const ENDPOINT: &str = "model";
const WORKERS: usize = 2;
const SHARDS: usize = 2;

/// A runtime serving one plan. With `remote`, the endpoint has only
/// remote shards, all served by one node that hosts the same plan.
pub struct Stack {
    pub runtime: ServingRuntime,
    pub node: Option<RemoteRuntimeNode>,
}

impl Stack {
    pub fn build(plan: &ServingPlan, remote: bool) -> Stack {
        let node = remote.then(|| {
            let mut nb = ServingRuntime::builder();
            nb.config(ServerConfig::builder().workers(WORKERS).build());
            nb.plan(ENDPOINT, plan.clone()).shards(SHARDS);
            RemoteRuntimeNode::bind("127.0.0.1:0", nb.build().expect("node runtime builds"))
                .expect("node binds to loopback")
        });
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(WORKERS).build());
        let eb = b.plan(ENDPOINT, plan.clone());
        match &node {
            Some(node) => {
                let addr = node.local_addr().to_string();
                (0..SHARDS).fold(eb.shards(0), |eb, _| eb.shard_remote(&addr));
            }
            None => {
                eb.shards(SHARDS);
            }
        }
        Stack {
            runtime: b.build().expect("runtime builds"),
            node,
        }
    }

    /// Parent forward nanoseconds and forwards so far (0 without a
    /// node).
    pub fn forward_nanos(&self) -> (u64, u64) {
        let ep = self
            .runtime
            .endpoint(ENDPOINT, 1)
            .expect("endpoint registered");
        (
            ep.stats().shard_transport_nanos().iter().sum(),
            self.runtime.stats().remote_forwards(),
        )
    }

    /// The runtime whose workers run the plan.
    pub fn exec_runtime(&self) -> &ServingRuntime {
        self.node
            .as_ref()
            .map_or(&self.runtime, RemoteRuntimeNode::runtime)
    }

    /// Node-side service nanoseconds and frames served so far.
    pub fn node_nanos(&self) -> (u64, u64) {
        self.node.as_ref().map_or((0, 0), |n| {
            let t = n.transport_stats();
            (t.total_nanos, t.forwards)
        })
    }
}

/// Requests cut from an input table, with the plan's direct scores for
/// the same rows as the reference every response must equal bit for
/// bit.
pub struct Requests {
    pub requests: Vec<Request>,
    /// Input-table rows of each request.
    pub rows: Vec<Vec<usize>>,
    pub reference: Vec<Vec<f64>>,
    pub labels: Vec<Vec<f64>>,
}

impl Requests {
    /// `n` requests of `batch` consecutive rows of `order` (a seeded
    /// permutation of the table's rows), cycling through it.
    pub fn cut(
        table: &Table,
        labels: &[f64],
        scores: &[f64],
        order: &[usize],
        batch: usize,
        n: usize,
    ) -> Requests {
        let mut out = Requests {
            requests: Vec::with_capacity(n),
            rows: Vec::with_capacity(n),
            reference: Vec::with_capacity(n),
            labels: Vec::with_capacity(n),
        };
        for i in 0..n {
            let rows: Vec<usize> = (0..batch)
                .map(|j| order[(i * batch + j) % order.len()])
                .collect();
            let wire = rows
                .iter()
                .map(|&r| table_row_to_wire(table, r).expect("row in range"))
                .collect();
            out.requests.push(Request {
                endpoint: Some(ENDPOINT.to_string()),
                ..Request::new(i as u64 + 1, wire)
            });
            out.reference
                .push(rows.iter().map(|&r| scores[r]).collect());
            out.labels.push(rows.iter().map(|&r| labels[r]).collect());
            out.rows.push(rows);
        }
        out
    }

    pub fn rows_per_request(&self) -> usize {
        self.requests.first().map_or(0, |r| r.rows.len())
    }
}

/// Bit-equal score lists.
pub fn same_scores(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One client request the way an application sends it: encode the
/// request to JSON, `call_raw`, decode the response, and compare the
/// scores with the reference. Spans go to `tracer` when given.
pub fn send(
    client: &RuntimeClient,
    reqs: &Requests,
    i: usize,
    tracer: Option<&Tracer>,
    correct_rows: &AtomicU64,
) -> bool {
    let k = i % reqs.requests.len();
    let go = |root: Option<usize>| {
        let trace = i as u64;
        let timed = |name: &str, f: &mut dyn FnMut()| match (tracer, root) {
            (Some(t), Some(r)) => t.span(trace, Some(r), name, |_| f()),
            _ => f(),
        };
        let mut payload = String::new();
        timed("client.encode", &mut || {
            payload = encode_request(&reqs.requests[k]).expect("request encodes");
        });
        let mut wire = Err(willump_serve::ServeError::Disconnected);
        timed("runtime.call", &mut || {
            wire = client.call_raw(std::mem::take(&mut payload));
        });
        let mut resp = None;
        timed("client.decode", &mut || {
            resp = wire.as_deref().ok().and_then(|w| decode_response(w).ok());
        });
        let Some(resp) = resp else { return false };
        let ok = resp.error.is_none()
            && !resp.overloaded
            && same_scores(&resp.scores, &reqs.reference[k]);
        if ok {
            let right = resp
                .scores
                .iter()
                .zip(&reqs.labels[k])
                .filter(|(s, y)| (**s >= 0.5) == (**y >= 0.5))
                .count();
            correct_rows.fetch_add(right as u64, Ordering::Relaxed);
        }
        ok
    };
    match tracer {
        Some(t) => t.span(i as u64, None, "request", |id| go(Some(id))),
        None => go(None),
    }
}

/// What one phase of requests through a stack measured.
pub struct Phase {
    pub load: OpenLoopReport,
    pub usage: UsageDelta,
    pub stats: ServerStatsSnapshot,
    /// Counter deltas of the runtime that ran the plan: the node's
    /// when the endpoint is remote, else the parent's.
    pub exec_stats: ServerStatsSnapshot,
    /// Rows whose served label matched the true label.
    pub correct_rows: u64,
    /// Parent forward nanoseconds and forwards during the phase.
    pub forward: (u64, u64),
    /// Node-side service nanoseconds and frames during the phase.
    pub node: (u64, u64),
}

impl Phase {
    /// On-CPU seconds of every thread of the process during the phase:
    /// the threads alive at its end plus the senders that measured
    /// themselves before exiting.
    pub fn cpu_secs(&self) -> f64 {
        (self.usage.live.cpu_ns + self.load.senders.cpu_ns) as f64 / 1e9
    }

    /// Context switches of the same threads.
    pub fn ctx_switches(&self) -> u64 {
        self.usage.live.ctx_switches + self.load.senders.ctx_switches
    }
}

/// Counters a phase is charged against, taken before it starts.
struct Snap {
    stats: ServerStatsSnapshot,
    exec: ServerStatsSnapshot,
    forward: (u64, u64),
    node: (u64, u64),
    usage: Usage,
}

impl Snap {
    fn take(stack: &Stack) -> Snap {
        Snap {
            stats: stack.runtime.stats().snapshot(),
            exec: stack.exec_runtime().stats().snapshot(),
            forward: stack.forward_nanos(),
            node: stack.node_nanos(),
            usage: Usage::now(),
        }
    }

    fn phase(self, stack: &Stack, load: OpenLoopReport, correct_rows: u64) -> Phase {
        let usage = self.usage.elapsed();
        let (forward, node) = (stack.forward_nanos(), stack.node_nanos());
        Phase {
            load,
            usage,
            stats: delta(&self.stats, &stack.runtime.stats().snapshot()),
            exec_stats: delta(&self.exec, &stack.exec_runtime().stats().snapshot()),
            correct_rows,
            forward: (forward.0 - self.forward.0, forward.1 - self.forward.1),
            node: (node.0 - self.node.0, node.1 - self.node.1),
        }
    }
}

/// Offer `arrivals` through the stack from `threads` senders,
/// starting at request `first` of `reqs`. With a tracer, requests with
/// an even schedule index are traced and odd ones are not, so both
/// halves meet the same host conditions.
pub fn open_phase(
    stack: &Stack,
    reqs: &Requests,
    arrivals: &[f64],
    threads: usize,
    first: usize,
    tracer: Option<&Tracer>,
) -> Phase {
    let client = stack.runtime.client();
    let correct = AtomicU64::new(0);
    let snap = Snap::take(stack);
    let load = loadgen::open_loop(arrivals, threads, |i| {
        let traced = tracer.filter(|_| i % 2 == 0);
        send(&client, reqs, first + i, traced, &correct)
    });
    snap.phase(stack, load, correct.into_inner())
}

/// Send requests back to back from `threads` callers for `seconds`.
pub fn closed_phase(stack: &Stack, reqs: &Requests, seconds: f64, threads: usize) -> Phase {
    let client = stack.runtime.client();
    let correct = AtomicU64::new(0);
    let snap = Snap::take(stack);
    let start = Instant::now();
    let (n, failed, mut times, senders) =
        loadgen::closed_loop(seconds, threads, |i| send(&client, reqs, i, None, &correct));
    times.sort_by(f64::total_cmp);
    let load = OpenLoopReport {
        offered: n,
        served: n - failed,
        failed,
        latencies: times,
        senders,
        wall: start.elapsed().as_secs_f64(),
        ..OpenLoopReport::default()
    };
    snap.phase(stack, load, correct.into_inner())
}

/// Counter deltas between two snapshots; high-water marks keep the
/// later value.
fn delta(a: &ServerStatsSnapshot, b: &ServerStatsSnapshot) -> ServerStatsSnapshot {
    ServerStatsSnapshot {
        requests: b.requests - a.requests,
        rows: b.rows - a.rows,
        batches: b.batches - a.batches,
        shed: b.shed - a.shed,
        degraded: b.degraded - a.degraded,
        transport_errors: b.transport_errors - a.transport_errors,
        failovers: b.failovers - a.failovers,
        remote_forwards: b.remote_forwards - a.remote_forwards,
        ..b.clone()
    }
}
