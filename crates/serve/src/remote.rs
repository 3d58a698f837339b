//! Cross-process sharding: the [`WorkerTransport`] layer.
//!
//! The [`crate::ServingRuntime`] routes every admitted request to a
//! shard of its target endpoint. This module makes the shard →
//! execution hop **pluggable**, so one endpoint can mix in-process
//! shards with shards served by *other runtimes* — in the same process
//! or across a TCP boundary in another process — behind the same
//! admission path, key-hash routing, canary/version selection, and
//! [`crate::EndpointStats`] accounting.
//!
//! Three pieces:
//!
//! - [`WorkerTransport`]: the trait a shard's execution backend
//!   implements. It has one forwarding method,
//!   [`forward_request`](WorkerTransport::forward_request): take one
//!   structured [`Request`], return the decoded [`Response`].
//!   Implementations report [`TransportStats`] (forwards, failures,
//!   reconnects, cumulative latency, bytes on the wire, peak
//!   in-flight depth, decode errors), which the runtime surfaces per
//!   shard.
//! - [`RemoteWorker`]: the TCP implementation. It speaks the
//!   [`crate::wire2`] binary protocol and **multiplexes** every
//!   in-flight forward onto one socket: each forward is tagged with a
//!   mux request id, written without waiting, and parked until a
//!   demultiplexing reader thread routes the matching response frame
//!   back to it — so concurrent forwards overlap on one connection.
//!   Failure semantics: one transparent retry on a *connection-level*
//!   failure (the response can no longer arrive), but **never** after
//!   a read timeout — the node may still be executing the request,
//!   and resending would double-execute it exactly when the node is
//!   most loaded — plus a consecutive-failure circuit breaker that
//!   fails fast while a shard stays dead. A forward succeeds only
//!   once its response decodes.
//! - [`RemoteRuntimeNode`]: the host side. Binds a listener and
//!   exposes a whole [`crate::ServingRuntime`] — all of its endpoints
//!   — to parent routers. A single **poll-based event loop** over
//!   nonblocking sockets owns every accepted connection (no
//!   thread-per-connection). It blocks in `poll(2)` until a socket or
//!   its wake socket is ready, checks each connection's handshake,
//!   reassembles frames with a bounded read (an oversized or corrupt
//!   length prefix is counted in `decode_errors` and refused, never
//!   trusted), and dispatches decoded requests to a small fixed worker
//!   pool. Each worker writes its reply frame, tagged with the
//!   request's mux id, straight to the request's connection, and
//!   wakes the loop only when the socket did not take every byte or
//!   the connection must close.
//!
//! The **local queue** implementation of the trait is
//! [`InProcessWorker`]: it forwards requests to another runtime in
//! the same process through its client handle — the same code path as
//! [`RemoteWorker`] minus the socket, which makes transport behavior
//! testable without networking and documents that the native
//! in-process shard path is just the degenerate transport whose
//! "wire" is a channel send.
//!
//! Forwarded requests set [`crate::Request::forwarded`], which pins
//! them to the receiving node's *local* shards — a node can itself
//! have remote shards without ever creating a forwarding loop.
//!
//! # Negotiation
//!
//! Every connection opens with one handshake. The [`RemoteWorker`]
//! writes [`WIRE2_PREAMBLE`]; the node answers with a
//! [`FrameType::HelloAck`] frame, and from then on both directions
//! carry only wire2 frames. There is no second mode: the node drops a
//! connection at the first byte that departs from the preamble
//! (counting one `decode_errors`), and the worker fails a dial whose
//! reply is anything but a `HelloAck` with [`ServeError::Transport`].
//! Both ends ship from this workspace, so a peer that answers in
//! another protocol is misconfigured. JSON stays at the client
//! boundary ([`crate::protocol`]), where Table 6 measures its cost.
//!
//! # Examples
//!
//! Serve an endpoint from a child runtime over TCP:
//!
//! ```
//! use std::sync::Arc;
//! use willump_serve::{
//!     RemoteRuntimeNode, Servable, ServingRuntime, WireRow,
//! };
//! use willump_data::{Table, Value};
//!
//! struct Doubler;
//! impl Servable for Doubler {
//!     fn predict_table(&self, t: &Table) -> Result<Vec<f64>, String> {
//!         let xs = t.column("x").ok_or("missing x")?;
//!         Ok(xs.to_f64_vec().map_err(|e| e.to_string())?
//!             .into_iter().map(|x| 2.0 * x).collect())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Child: a runtime exposed on a TCP port.
//! let mut child = ServingRuntime::builder();
//! child.endpoint("double", Arc::new(Doubler));
//! let node = RemoteRuntimeNode::bind("127.0.0.1:0", child.build()?)?;
//!
//! // Parent: one local shard plus one shard served by the child.
//! let mut parent = ServingRuntime::builder();
//! parent
//!     .endpoint("double", Arc::new(Doubler))
//!     .shard_remote(&node.local_addr().to_string());
//! let runtime = parent.build()?;
//! let client = runtime.client();
//! let rows: Vec<WireRow> = vec![vec![("x".to_string(), Value::Float(3.0))]];
//! assert_eq!(client.predict_endpoint("double", rows)?, vec![6.0]);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::raw::c_short;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use willump::PlanCountersSnapshot;

use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::protocol::{Request, Response, ERROR_RESPONSE_ID};
use crate::runtime::{RuntimeClient, ServingRuntime};
use crate::wire2::{
    decode_header, decode_request_payload, decode_response_payload, encode_frame,
    encode_request_payload, encode_response_payload, read_frame, FrameReadError, FrameType,
    WIRE2_HEADER_LEN, WIRE2_MAGIC, WIRE2_PREAMBLE, WIRE2_VERSION,
};
use crate::ServeError;

/// Where a shard's work is executed: the boundary between the
/// runtime's routing layer and a worker that may live in another
/// process.
///
/// A transport takes one request and returns the response — exactly a
/// client's view of a serving runtime. The runtime measures each
/// forward and folds the latency into the endpoint's per-shard
/// counters; implementations additionally keep their own
/// [`TransportStats`].
pub trait WorkerTransport: Send + Sync {
    /// Forward one structured [`Request`]; return the decoded
    /// [`Response`] plus the bytes that crossed the wire.
    ///
    /// # Errors
    /// [`ServeError::Transport`] (or [`ServeError::Disconnected`])
    /// when the backing worker cannot be reached or its reply cannot
    /// be decoded — the runtime then fails the request over to a
    /// surviving shard — and [`ServeError::Codec`] when the request
    /// exceeds the frame bound.
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError>;

    /// Human-readable backend description (`"tcp://127.0.0.1:9001"`,
    /// `"in-process"`), used in stats dumps and error messages.
    fn describe(&self) -> String;

    /// Cumulative transport counters.
    fn stats(&self) -> TransportStats;

    /// Forward a control/probe request and return its response.
    /// Defaults to [`forward_request`] (probes then count as ordinary
    /// forwards); implementations whose stats feed latency dashboards
    /// should override this to keep probe round trips out of
    /// [`TransportStats`], as [`RemoteWorker`] does.
    ///
    /// [`forward_request`]: WorkerTransport::forward_request
    ///
    /// # Errors
    /// Same conditions as
    /// [`forward_request`](WorkerTransport::forward_request).
    fn forward_probe(&self, req: &Request) -> Result<Response, ServeError> {
        self.forward_request(req).map(|reply| reply.response)
    }

    /// Where this transport's circuit breaker stands right now.
    /// Transports without a breaker are always
    /// [`BreakerState::Closed`]; [`RemoteWorker`] overrides this with
    /// its real state so health probers can target open shards.
    fn breaker_state(&self) -> BreakerState {
        BreakerState::Closed
    }

    /// Ask the backing runtime for one endpoint's
    /// [`PlanCountersSnapshot`] via a
    /// [`crate::ControlRequest::Counters`] probe.
    ///
    /// This is how a parent's escalation-aware scheduler reads plan
    /// statistics that accumulated in another process (see
    /// [`ServingRuntime::refresh_remote_counters`]).
    ///
    /// # Errors
    /// Returns [`ServeError::Transport`] when the probe cannot be
    /// delivered or the reply names no such endpoint.
    fn probe_counters(
        &self,
        endpoint: &str,
        version: u32,
    ) -> Result<PlanCountersSnapshot, ServeError> {
        let resp = self.forward_probe(&Request::counters_probe(1))?;
        extract_counters(resp, endpoint, version, &self.describe())
    }
}

/// The result of one [`WorkerTransport::forward_request`] round trip:
/// the decoded response plus how many bytes crossed the transport in
/// each direction (0/0 for in-process transports, whose "wire" is a
/// channel send).
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardReply {
    /// The decoded response.
    pub response: Response,
    /// Bytes written to the transport for this request.
    pub bytes_sent: u64,
    /// Bytes read from the transport for this response.
    pub bytes_received: u64,
}

/// Pull one endpoint's snapshot out of a counters control response.
fn extract_counters(
    resp: Response,
    endpoint: &str,
    version: u32,
    who: &str,
) -> Result<PlanCountersSnapshot, ServeError> {
    if let Some(err) = resp.error {
        return Err(ServeError::Transport(format!(
            "counters probe failed: {err}"
        )));
    }
    resp.counters
        .unwrap_or_default()
        .into_iter()
        .find(|c| c.endpoint == endpoint && c.version == version)
        .map(|c| c.counters)
        .ok_or_else(|| {
            ServeError::Transport(format!(
                "node {who} reports no endpoint `{endpoint}` v{version}"
            ))
        })
}

/// Where a transport's circuit breaker currently stands. Only
/// breaker-carrying transports ([`RemoteWorker`]) ever leave
/// [`Closed`](BreakerState::Closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Forwards flow normally (consecutive failures below threshold).
    Closed,
    /// Enough consecutive failures accumulated: counted forwards fail
    /// fast without touching the wire. Probes still go through.
    Open,
    /// The breaker is letting trial traffic through: either a health
    /// probe is in flight right now, or the cool-down elapsed and the
    /// next forward rides half-open. The first success closes it.
    Probing,
}

willump::counter_set! {
    /// Shared atomic counters behind a [`TransportStats`] snapshot.
    #[derive(Debug, Default)]
    struct TransportCounters {}

    /// Point-in-time counters of one [`WorkerTransport`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct TransportStats {
        /// Frames forwarded successfully.
        sum forwards,
        /// Forwards that ultimately failed (after any reconnect attempt).
        sum failures,
        /// Connections re-established after a drop (the first-ever
        /// connection does not count).
        sum reconnects,
        /// Cumulative round-trip nanoseconds of successful forwards.
        sum total_nanos,
        /// Bytes written to the transport (frame headers included).
        sum bytes_sent,
        /// Bytes read from the transport.
        sum bytes_received,
        /// Peak number of requests simultaneously in flight.
        max max_in_flight,
        /// Frames rejected as oversized or corrupt (bad magic/version,
        /// unknown frame type, length prefix past the bound, undecodable
        /// payload).
        sum decode_errors,
        /// Health/counters probes attempted (never counted as forwards).
        sum probes_sent,
        /// Probes that completed successfully. A success against an
        /// open-breaker node closes the breaker (re-admission).
        sum probes_ok,
    }
}

impl TransportStats {
    /// Mean round-trip seconds per successful forward (0 before the
    /// first success).
    pub fn mean_latency(&self) -> f64 {
        if self.forwards == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.forwards as f64 / 1e9
        }
    }
}

impl TransportCounters {
    fn record_success(&self, elapsed: Duration) {
        self.forwards.fetch_add(1, Ordering::Relaxed);
        self.total_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Decrements an in-flight gauge when the tracked forward completes
/// (on any exit path).
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Bump an in-flight gauge, fold the new depth into
/// `max_in_flight`, and return the guard that undoes the bump.
fn enter_in_flight<'a>(gauge: &'a AtomicUsize, counters: &TransportCounters) -> InFlightGuard<'a> {
    let depth = gauge.fetch_add(1, Ordering::Relaxed) + 1;
    counters
        .max_in_flight
        .fetch_max(depth as u64, Ordering::Relaxed);
    InFlightGuard(gauge)
}

// ---- the local-queue transport -------------------------------------

/// The local implementation of [`WorkerTransport`]: forwards requests
/// to another [`ServingRuntime`] *in the same process* through a
/// regular client handle (whose sends land on the target runtime's
/// worker queues).
///
/// Functionally identical to [`RemoteWorker`] minus the socket:
/// useful for testing transport routing without networking, and for
/// composing runtimes inside one process (e.g. giving a tenant's
/// endpoint its own isolated worker pool).
pub struct InProcessWorker {
    client: RuntimeClient,
    in_flight: AtomicUsize,
    counters: TransportCounters,
}

impl std::fmt::Debug for InProcessWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessWorker")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl InProcessWorker {
    /// A transport forwarding to `runtime`'s worker queues.
    #[must_use]
    pub fn new(runtime: &ServingRuntime) -> InProcessWorker {
        InProcessWorker {
            client: runtime.client(),
            in_flight: AtomicUsize::new(0),
            counters: TransportCounters::default(),
        }
    }
}

impl WorkerTransport for InProcessWorker {
    /// The request reaches the target runtime's admission path as a
    /// struct (the "wire" is a channel send, so both byte counts are
    /// 0).
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError> {
        let start = Instant::now();
        let _guard = enter_in_flight(&self.in_flight, &self.counters);
        match self.client.call_request(req.clone()) {
            Ok(response) => {
                self.counters.record_success(start.elapsed());
                Ok(ForwardReply {
                    response,
                    bytes_sent: 0,
                    bytes_received: 0,
                })
            }
            Err(e) => {
                self.counters.failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn describe(&self) -> String {
        // The runtime id distinguishes two in-process backends, so
        // per-backend deduplication (counter merging) stays correct.
        format!("in-process:{:x}", self.client.runtime_id())
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }
}

// ---- the TCP transport ---------------------------------------------

/// One response (or drop notice) routed to a parked mux waiter.
enum MuxEvent {
    /// A response frame's payload arrived for this waiter's mux id.
    Frame(Vec<u8>),
    /// The connection died before the response arrived; the response
    /// can no longer arrive here, so a fresh-connection retry is safe.
    Dropped,
}

/// One multiplexed v2 connection: many in-flight forwards share the
/// socket, each tagged with a mux request id; a dedicated reader
/// thread demultiplexes response frames back to the parked waiters.
struct MuxConn {
    /// Write half. Locked per frame write only — never across a round
    /// trip — so concurrent forwards interleave their frames.
    writer: Mutex<TcpStream>,
    /// Extra handle used to `shutdown()` the socket: the reader
    /// thread blocks without a read timeout (a timeout mid-frame
    /// would tear the stream for every in-flight request), so socket
    /// shutdown is how it is woken for teardown.
    wake: TcpStream,
    /// Parked forwards by mux id.
    waiters: Mutex<HashMap<u32, Sender<MuxEvent>>>,
    /// Next mux correlation id (wraps; ids are transient).
    next_id: AtomicU32,
    /// Set once the reader exits (EOF, I/O error, corrupt frame) or
    /// the connection is killed; no new forwards board after this.
    dead: AtomicBool,
}

impl MuxConn {
    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.wake.shutdown(Shutdown::Both);
    }
}

/// Demultiplexing reader loop: routes each response frame to the
/// waiter registered under its mux id. An id with no waiter is a
/// response that arrived after its forward timed out — dropped by
/// design, because the forward was never resent. On exit every parked
/// waiter is notified that the connection dropped.
fn mux_reader(
    conn: &Arc<MuxConn>,
    reader: &mut BufReader<TcpStream>,
    counters: &TransportCounters,
) {
    loop {
        if conn.dead.load(Ordering::Relaxed) {
            break;
        }
        match read_frame(reader) {
            Ok(Some((hdr, payload))) => {
                counters
                    .bytes_received
                    .fetch_add((WIRE2_HEADER_LEN + payload.len()) as u64, Ordering::Relaxed);
                match hdr.frame_type {
                    FrameType::BinResponse => {
                        let waiter = conn.waiters.lock().remove(&hdr.request_id);
                        if let Some(tx) = waiter {
                            let _ = tx.send(MuxEvent::Frame(payload));
                        }
                    }
                    FrameType::HelloAck => {}
                    FrameType::BinRequest => {
                        // A node must answer with response frames;
                        // request frames here mean the stream is torn.
                        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            Ok(None) => break,
            Err(FrameReadError::Corrupt(_)) => {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameReadError::Io(_)) => break,
        }
    }
    // Order matters: `dead` is set before the drain (both sides
    // touch the waiters map under its lock), so a forward either
    // boards in time to be drained or observes `dead` after boarding.
    conn.dead.store(true, Ordering::Relaxed);
    let waiters: Vec<(u32, Sender<MuxEvent>)> = conn.waiters.lock().drain().collect();
    for (_, tx) in waiters {
        let _ = tx.send(MuxEvent::Dropped);
    }
}

/// How one mux round trip failed.
struct MuxFailure {
    /// Connection-level: the response can no longer arrive on this
    /// connection, so one fresh-connection retry is safe. Never set
    /// for a timeout (the node may still be executing the request).
    retryable: bool,
    timed_out: bool,
    error: ServeError,
}

/// What one mux round trip produced: the response payload, then the
/// bytes sent and received (frame headers included).
type MuxReply = (Vec<u8>, u64, u64);

/// A TCP [`WorkerTransport`]: forwards requests to a
/// [`RemoteRuntimeNode`] (typically in another process) over the
/// [`crate::wire2`] binary protocol.
///
/// The connection is **multiplexed**: every concurrent forward shares
/// one socket, tagged with a mux request id and parked until the
/// demux reader routes its response frame back — so parallel requests
/// to one shard overlap their round trips without per-request
/// sockets. Dialing is **lazy** (nothing until the first forward), and
/// each dial performs the preamble/`HelloAck` handshake described in
/// [`crate::wire2`].
///
/// A connect, send, or connection-drop failure retries once on a
/// fresh connection before the error is reported, so a restarted node
/// is picked back up without intervention. A **read timeout** is
/// deliberately *not* retried: the node may be alive and still
/// executing the request, and resending the frame would execute it a
/// second time exactly when the node is at its most loaded — the
/// error surfaces instead, and the runtime's shard fail-over decides
/// what to do. (Unlike a drop, a timeout leaves the multiplexed
/// connection in service: other in-flight forwards are unaffected,
/// and a response arriving after its waiter gave up is discarded by
/// mux id.) A response that arrives but does not decode is a failed
/// forward: it counts in `decode_errors` and `failures`, feeds the
/// circuit breaker, and never counts as a success.
pub struct RemoteWorker {
    addr: String,
    timeout: Duration,
    /// The live multiplexed connection, if any.
    mux: Mutex<Option<Arc<MuxConn>>>,
    /// Current in-flight depth (feeds `TransportStats::max_in_flight`).
    in_flight: AtomicUsize,
    /// A failure happened since the last successful dial (drives
    /// reconnect accounting: the dial that clears this counts as a
    /// reconnect).
    broken: AtomicBool,
    /// Circuit breaker: consecutive failed forwards, and when the
    /// last one happened. Once `consecutive_failures` reaches
    /// `breaker_threshold`, forwards fail fast (no dial, no timeout
    /// wait) until `breaker_cooldown` has elapsed since the last
    /// failure; then one trial forward is let through (half-open).
    consecutive_failures: AtomicU64,
    last_failure: Mutex<Option<Instant>>,
    breaker_threshold: u64,
    breaker_cooldown: Duration,
    /// A health probe is in flight right now (drives
    /// [`BreakerState::Probing`] independent of the cool-down clock).
    probing: AtomicBool,
    counters: Arc<TransportCounters>,
}

/// Default consecutive-failure threshold that opens a
/// [`RemoteWorker`]'s circuit breaker (see
/// [`RemoteWorker::with_breaker`]).
pub const REMOTE_WORKER_BREAKER_FAILURES: u64 = 3;

/// Default cool-down an open [`RemoteWorker`] breaker waits before
/// letting a half-open trial forward through.
pub const REMOTE_WORKER_BREAKER_COOLDOWN: Duration = Duration::from_secs(1);

impl std::fmt::Debug for RemoteWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteWorker")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Default I/O timeout for [`RemoteWorker`] connections: generous
/// enough for a loaded node serving a large batch, short enough that
/// a wedged node triggers fail-over rather than hanging clients.
pub const REMOTE_WORKER_TIMEOUT: Duration = Duration::from_secs(10);

impl RemoteWorker {
    /// A transport to the node at `addr` (`"host:port"`). No
    /// connection is attempted until the first forward.
    #[must_use]
    pub fn new(addr: &str) -> RemoteWorker {
        RemoteWorker {
            addr: addr.to_string(),
            timeout: REMOTE_WORKER_TIMEOUT,
            mux: Mutex::new(None),
            in_flight: AtomicUsize::new(0),
            broken: AtomicBool::new(false),
            consecutive_failures: AtomicU64::new(0),
            last_failure: Mutex::new(None),
            breaker_threshold: REMOTE_WORKER_BREAKER_FAILURES,
            breaker_cooldown: REMOTE_WORKER_BREAKER_COOLDOWN,
            probing: AtomicBool::new(false),
            counters: Arc::new(TransportCounters::default()),
        }
    }

    /// Override the circuit breaker (default
    /// [`REMOTE_WORKER_BREAKER_FAILURES`] consecutive failures, then
    /// fail fast for [`REMOTE_WORKER_BREAKER_COOLDOWN`] per failure).
    /// `threshold` 0 disables the breaker entirely: every forward to
    /// a dead node then pays its full dial/timeout cost before the
    /// runtime fails over.
    #[must_use]
    pub fn with_breaker(mut self, threshold: u64, cooldown: Duration) -> RemoteWorker {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Override the connect/read/write timeout (default
    /// [`REMOTE_WORKER_TIMEOUT`]).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteWorker {
        self.timeout = timeout;
        self
    }

    /// The target address this transport forwards to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Dial and negotiate: send [`WIRE2_PREAMBLE`], require a
    /// `HelloAck` frame back, then start the demux reader. Any other
    /// reply — another frame, bytes that are no frame at all, or a
    /// hang-up — fails the dial with [`ServeError::Transport`].
    fn dial(&self) -> Result<Arc<MuxConn>, ServeError> {
        let io = |e: std::io::Error| ServeError::Transport(format!("{}: {e}", self.addr));
        let sockaddr = self
            .addr
            .to_socket_addrs()
            .map_err(io)?
            .next()
            .ok_or_else(|| {
                ServeError::Transport(format!("{}: address resolves to nothing", self.addr))
            })?;
        let stream = TcpStream::connect_timeout(&sockaddr, self.timeout).map_err(io)?;
        stream.set_read_timeout(Some(self.timeout)).map_err(io)?;
        stream.set_write_timeout(Some(self.timeout)).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut writer = stream;
        let mut reader = BufReader::new(writer.try_clone().map_err(io)?);
        writer.write_all(WIRE2_PREAMBLE).map_err(io)?;
        writer.flush().map_err(io)?;
        match read_frame(&mut reader) {
            Ok(Some((hdr, _))) if hdr.frame_type == FrameType::HelloAck => {}
            Ok(_) => {
                return Err(ServeError::Transport(format!(
                    "{}: no HelloAck during negotiation",
                    self.addr
                )))
            }
            Err(e) => {
                return Err(ServeError::Transport(format!(
                    "{}: negotiation failed: {e}",
                    self.addr
                )))
            }
        }
        // The demux reader blocks without a read timeout (a timeout
        // mid-frame would tear the stream for every in-flight
        // forward); per-forward timeouts live on the waiters, and
        // teardown wakes the reader via shutdown.
        writer.set_read_timeout(None).map_err(io)?;
        let wake = writer.try_clone().map_err(io)?;
        let conn = Arc::new(MuxConn {
            writer: Mutex::new(writer),
            wake,
            waiters: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            dead: AtomicBool::new(false),
        });
        let thread_conn = Arc::clone(&conn);
        let counters = Arc::clone(&self.counters);
        std::thread::Builder::new()
            .name("willump-mux-reader".to_string())
            .spawn(move || mux_reader(&thread_conn, &mut reader, &counters))
            .map_err(io)?;
        Ok(conn)
    }

    /// Fail this forward: remember the transport is broken (the next
    /// successful dial counts as a reconnect) and, for counted
    /// (non-probe) forwards, feed the stats and the circuit breaker.
    fn fail(&self, error: ServeError, record: bool) -> ServeError {
        self.broken.store(true, Ordering::Relaxed);
        self.fail_keep(error, record)
    }

    /// Fail this forward *without* marking the transport broken —
    /// used for mux timeouts and undecodable replies, where the
    /// connection stays in service for the other in-flight forwards.
    fn fail_keep(&self, error: ServeError, record: bool) -> ServeError {
        if record {
            self.counters.failures.fetch_add(1, Ordering::Relaxed);
            self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
            *self.last_failure.lock() = Some(Instant::now());
        }
        error
    }

    /// Record a counted forward's success and close the breaker.
    fn succeed(&self, elapsed: Duration) {
        self.counters.record_success(elapsed);
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// Whether the circuit breaker currently rejects forwards. Open
    /// fails fast; [`BreakerState::Probing`] (half-open or probe in
    /// flight) lets forwards proceed — the first success closes it.
    fn breaker_open(&self) -> bool {
        self.state() == BreakerState::Open
    }

    /// This worker's explicit breaker state: below the failure
    /// threshold the breaker is [`Closed`](BreakerState::Closed); at
    /// or past it, the breaker is [`Probing`](BreakerState::Probing)
    /// while a health probe is in flight or once the cool-down since
    /// the last failure elapsed (half-open), and
    /// [`Open`](BreakerState::Open) otherwise.
    pub fn state(&self) -> BreakerState {
        if self.breaker_threshold == 0
            || self.consecutive_failures.load(Ordering::Relaxed) < self.breaker_threshold
        {
            return BreakerState::Closed;
        }
        if self.probing.load(Ordering::Relaxed) {
            return BreakerState::Probing;
        }
        let cooling = self
            .last_failure
            .lock()
            .is_some_and(|t| t.elapsed() < self.breaker_cooldown);
        if cooling {
            BreakerState::Open
        } else {
            BreakerState::Probing
        }
    }

    /// Get the live mux connection or dial one.
    fn mux_establish(&self) -> Result<Arc<MuxConn>, ServeError> {
        let mut slot = self.mux.lock();
        if let Some(conn) = slot.as_ref() {
            if !conn.dead.load(Ordering::Relaxed) {
                return Ok(Arc::clone(conn));
            }
            // The connection died since the last successful dial
            // (node restart, reader error): the fresh dial below must
            // count as a reconnect even when no forward failed in
            // between.
            self.broken.store(true, Ordering::Relaxed);
        }
        let conn = self.dial()?;
        if self.broken.swap(false, Ordering::Relaxed) {
            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// One tagged round trip on an established mux connection: board
    /// a waiter, write the frame (the writer lock covers the write
    /// only, never the wait), then park until the demux reader routes
    /// the response back or the per-forward timeout fires.
    fn mux_round(&self, conn: &Arc<MuxConn>, payload: &[u8]) -> Result<MuxReply, MuxFailure> {
        let id = conn.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(FrameType::BinRequest, id, payload).map_err(|e| MuxFailure {
            retryable: false,
            timed_out: false,
            error: e,
        })?;
        let (tx, rx) = bounded(1);
        conn.waiters.lock().insert(id, tx);
        // The reader sets `dead` before draining waiters (both under
        // the waiters lock), so either it saw this waiter and will
        // notify it, or this check observes `dead` — never neither.
        if conn.dead.load(Ordering::Relaxed) {
            conn.waiters.lock().remove(&id);
            return Err(MuxFailure {
                retryable: true,
                timed_out: false,
                error: ServeError::Transport(format!("{}: connection dropped", self.addr)),
            });
        }
        let write_result = { conn.writer.lock().write_all(&frame) };
        if let Err(e) = write_result {
            conn.waiters.lock().remove(&id);
            conn.kill();
            let timed_out = matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            );
            return Err(MuxFailure {
                // A write timeout may have torn a partial frame onto
                // the wire; like a read timeout it is never retried.
                retryable: !timed_out,
                timed_out,
                error: ServeError::Transport(format!("{}: {e}", self.addr)),
            });
        }
        let sent = frame.len() as u64;
        self.counters.bytes_sent.fetch_add(sent, Ordering::Relaxed);
        match rx.recv_timeout(self.timeout) {
            Ok(MuxEvent::Frame(body)) => {
                let received = (WIRE2_HEADER_LEN + body.len()) as u64;
                Ok((body, sent, received))
            }
            Ok(MuxEvent::Dropped) => Err(MuxFailure {
                retryable: true,
                timed_out: false,
                error: ServeError::Transport(format!(
                    "{}: connection dropped before the response arrived",
                    self.addr
                )),
            }),
            Err(_) => {
                // The node may still be executing this request: do
                // NOT resend it. Unpark, leave the connection in
                // service; a late response is discarded by mux id.
                conn.waiters.lock().remove(&id);
                Err(MuxFailure {
                    retryable: false,
                    timed_out: true,
                    error: ServeError::Transport(format!(
                        "{}: read timed out after {:?}",
                        self.addr, self.timeout
                    )),
                })
            }
        }
    }

    /// One round on the live connection and — only for
    /// connection-level failures — one retry on a fresh dial.
    /// Failures are recorded here; success is the caller's to record
    /// once the reply decodes. `record: false` (probes) skips the
    /// failure counters and breaker accounting.
    fn mux_forward(&self, payload: &[u8], record: bool) -> Result<MuxReply, ServeError> {
        // Attempt 1: the live multiplexed connection, if any.
        let existing = { self.mux.lock().clone() };
        if let Some(conn) = existing.filter(|c| !c.dead.load(Ordering::Relaxed)) {
            match self.mux_round(&conn, payload) {
                Ok(reply) => return Ok(reply),
                Err(f) if !f.retryable => return Err(self.fail_keep(f.error, record)),
                // The connection dropped mid-flight: the response
                // cannot arrive on it, so a single fresh-connection
                // retry is safe. Mark the transport broken — the
                // fresh dial below counts as a reconnect.
                Err(_) => self.broken.store(true, Ordering::Relaxed),
            }
        }
        // Attempt 2: a fresh connection.
        let conn = self.mux_establish().map_err(|e| self.fail(e, record))?;
        self.mux_round(&conn, payload).map_err(|f| {
            if f.timed_out {
                self.fail_keep(f.error, record)
            } else {
                self.fail(f.error, record)
            }
        })
    }

    /// The forward path shared by counted forwards and probes:
    /// breaker check, one mux forward, and the response decode. Only a
    /// decoded response counts as a success; `record: false` (probes)
    /// skips the stats counters and breaker accounting, so periodic
    /// probes cannot dilute the mean forward latency or flap the
    /// breaker.
    fn forward_request_impl(
        &self,
        req: &Request,
        record: bool,
    ) -> Result<ForwardReply, ServeError> {
        let _guard = enter_in_flight(&self.in_flight, &self.counters);
        // Circuit breaker: a shard that keeps failing fails fast — no
        // dial, no timeout wait — so keyed traffic sticky to a dead
        // node degrades by one cheap error instead of a full connect
        // timeout per request. Probes (`record: false`) bypass it —
        // they are how recovery is discovered.
        if record && self.breaker_open() {
            self.counters.failures.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Transport(format!(
                "{}: circuit open after {} consecutive failures",
                self.addr,
                self.consecutive_failures.load(Ordering::Relaxed)
            )));
        }
        let payload = encode_request_payload(req);
        let start = Instant::now();
        let (body, bytes_sent, bytes_received) = self.mux_forward(&payload, record)?;
        let elapsed = start.elapsed();
        match decode_response_payload(&body) {
            Ok(response) => {
                if record {
                    self.succeed(elapsed);
                }
                Ok(ForwardReply {
                    response,
                    bytes_sent,
                    bytes_received,
                })
            }
            Err(e) => {
                self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                Err(self.fail_keep(ServeError::Transport(format!("{}: {e}", self.addr)), record))
            }
        }
    }
}

impl Drop for RemoteWorker {
    fn drop(&mut self) {
        // Wake the demux reader (it blocks without a read timeout) so
        // its thread exits instead of outliving this worker.
        if let Some(conn) = self.mux.lock().take() {
            conn.kill();
        }
    }
}

impl WorkerTransport for RemoteWorker {
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError> {
        self.forward_request_impl(req, true)
    }

    fn describe(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    /// Probes ride the same mux/retry path but are *not* counted as
    /// forwards, so periodic [`ServingRuntime::refresh_remote_counters`]
    /// polling cannot dilute the mean forward latency or desync
    /// `TransportStats::forwards` from the runtime's own
    /// `remote_forwards`. They bypass an open breaker (the breaker
    /// reads [`BreakerState::Probing`] while one is in flight), and a
    /// successful probe closes it — this is how a health prober
    /// re-admits a recovered node.
    fn forward_probe(&self, req: &Request) -> Result<Response, ServeError> {
        self.counters.probes_sent.fetch_add(1, Ordering::Relaxed);
        self.probing.store(true, Ordering::Relaxed);
        let result = self.forward_request_impl(req, false);
        self.probing.store(false, Ordering::Relaxed);
        if result.is_ok() {
            self.counters.probes_ok.fetch_add(1, Ordering::Relaxed);
            // The node answered: close the breaker so counted
            // forwards flow again (automatic re-admission).
            self.consecutive_failures.store(0, Ordering::Relaxed);
        }
        result.map(|reply| reply.response)
    }

    fn breaker_state(&self) -> BreakerState {
        self.state()
    }
}

// ---- the host side -------------------------------------------------

/// Per-call chunk size of the event loop's nonblocking reads.
const NODE_READ_CHUNK: usize = 16 * 1024;

/// How long the event loop stops watching the listener after an
/// `accept` error other than `WouldBlock` (descriptor exhaustion, for
/// one): the pending connection keeps the listener readable, so
/// watching it at once would turn the readiness wait into a busy loop.
const NODE_ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// State the event loop shares with the dispatch workers and the
/// [`RemoteRuntimeNode`] handle.
struct NodeShared {
    counters: TransportCounters,
    /// Requests dispatched and not yet answered, across every
    /// connection; its peak is `max_in_flight`.
    in_flight: AtomicUsize,
    /// Set once by [`RemoteRuntimeNode::shutdown`].
    shutdown: AtomicBool,
    /// The wake socket pair: one byte written to `wake_tx` makes
    /// `wake_rx` readable and ends the loop's readiness wait. Both
    /// ends live as long as any thread can write, so a wake never
    /// meets a closed peer.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl NodeShared {
    /// End the event loop's current (or next) readiness wait. A full
    /// wake socket already guarantees a wake-up, so `WouldBlock` is
    /// fine to ignore.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// Outbound bytes of one connection, written by whoever holds the
/// lock: a dispatch worker appending its reply, or the event loop.
#[derive(Default)]
struct NodeWrite {
    buf: Vec<u8>,
    /// How much of `buf` has been written so far.
    pos: usize,
    /// A write failed: the connection is dead and must be dropped.
    failed: bool,
}

impl NodeWrite {
    /// Bytes are buffered but not yet written.
    fn pending(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Write as much buffered output as the nonblocking socket
    /// accepts right now.
    fn flush(&mut self, stream: &TcpStream, counters: &TransportCounters) {
        while self.pending() {
            match (&*stream).write(&self.buf[self.pos..]) {
                Ok(n) if n > 0 => {
                    counters.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                    self.pos += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                _ => {
                    // Nothing buffered can be sent any more.
                    self.failed = true;
                    break;
                }
            }
        }
        self.buf.clear();
        self.pos = 0;
    }
}

/// The output half of a connection, shared by the event loop and
/// every dispatched job, so a dispatch worker writes its reply
/// straight to the socket.
struct NodeOutput {
    stream: TcpStream,
    write: Mutex<NodeWrite>,
    /// Requests dispatched on this connection and not yet answered.
    in_flight: AtomicUsize,
    /// Stop reading; close once in-flight work and writes drain.
    draining: AtomicBool,
}

impl NodeOutput {
    /// Append one frame and write what the socket accepts. Returns
    /// true when the event loop must look at the connection: bytes
    /// are left over (it waits for `POLLOUT`) or the socket failed.
    fn send(&self, frame: &[u8], counters: &TransportCounters) -> bool {
        let mut write = self.write.lock();
        if !write.failed {
            write.buf.extend_from_slice(frame);
            write.flush(&self.stream, counters);
        }
        write.failed || write.pending()
    }
}

/// Per-connection state owned by the node's event loop.
struct NodeConn {
    out: Arc<NodeOutput>,
    /// The client's [`WIRE2_PREAMBLE`] arrived and was answered with
    /// `HelloAck`; until then inbound bytes must spell the preamble.
    negotiated: bool,
    /// Unparsed inbound bytes.
    rbuf: Vec<u8>,
    /// Output was left unsent at the end of the last pass: wait for
    /// `POLLOUT`.
    want_write: bool,
    /// Drop the connection now (protocol violation or I/O error).
    fatal: bool,
}

impl NodeConn {
    fn new(stream: TcpStream) -> NodeConn {
        NodeConn {
            out: Arc::new(NodeOutput {
                stream,
                write: Mutex::new(NodeWrite::default()),
                in_flight: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
            }),
            negotiated: false,
            rbuf: Vec::new(),
            want_write: false,
            fatal: false,
        }
    }

    /// The readiness events this connection waits for: input unless
    /// it is draining, output only while bytes are unsent.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if !self.out.draining.load(Ordering::SeqCst) {
            events |= POLLIN;
        }
        if self.want_write {
            events |= POLLOUT;
        }
        events
    }
}

impl Drop for NodeConn {
    /// An in-flight job still holds the socket through its
    /// [`NodeOutput`], so closing our handle alone would not end the
    /// connection: shut it down so the peer sees EOF now.
    fn drop(&mut self) {
        let _ = self.out.stream.shutdown(Shutdown::Both);
    }
}

/// One binary request payload dispatched from the event loop to the
/// worker pool, with the output half its response frame goes to.
struct NodeJob {
    out: Arc<NodeOutput>,
    mux_id: u32,
    payload: Vec<u8>,
}

/// Encode a response into a `BinResponse` frame; a response so large
/// it exceeds the frame bound degrades to an in-band error frame.
fn response_frame(mux_id: u32, resp: &Response) -> Vec<u8> {
    let payload = encode_response_payload(resp);
    match encode_frame(FrameType::BinResponse, mux_id, &payload) {
        Ok(bytes) => bytes,
        Err(_) => {
            let fallback = Response::failure(
                resp.id,
                format!(
                    "response of {} bytes exceeds the frame bound",
                    payload.len()
                ),
            );
            encode_frame(
                FrameType::BinResponse,
                mux_id,
                &encode_response_payload(&fallback),
            )
            .unwrap_or_default()
        }
    }
}

/// A node worker: executes decoded requests against the hosted
/// runtime and writes each reply straight to its connection. It wakes
/// the event loop only when the loop has something to do: bytes the
/// socket did not take, a connection to close, or a draining
/// connection whose last request just finished. Exits when the job
/// channel disconnects (the event loop owns the sender).
fn node_worker(jobs: &Receiver<NodeJob>, client: &RuntimeClient, shared: &NodeShared) {
    let counters = &shared.counters;
    while let Ok(NodeJob {
        out,
        mux_id,
        payload,
    }) = jobs.recv()
    {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let start = Instant::now();
        let frame = match decode_request_payload(&payload) {
            Ok(req) => match client.call_request(req) {
                Ok(resp) => {
                    counters.record_success(start.elapsed());
                    Some(response_frame(mux_id, &resp))
                }
                Err(_) => None,
            },
            Err(e) => {
                // The framing was intact — only this payload is bad —
                // so answer in band and keep the connection in
                // service.
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::failure(
                    ERROR_RESPONSE_ID,
                    format!("binary request decode failed: {e}"),
                );
                Some(response_frame(mux_id, &resp))
            }
        };
        let wake = match frame {
            Some(bytes) => out.send(&bytes, counters),
            None => {
                // Unservable request: drain the connection.
                out.draining.store(true, Ordering::SeqCst);
                true
            }
        };
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        // The reply is buffered before the count drops, so a loop that
        // reads zero here knows every reply is already in `write`.
        let last = out.in_flight.fetch_sub(1, Ordering::SeqCst) == 1;
        if wake || last && out.draining.load(Ordering::SeqCst) {
            shared.wake();
        }
    }
}

/// Read whatever is ready on a nonblocking connection; EOF starts the
/// drain.
fn node_read(conn: &mut NodeConn, counters: &TransportCounters) {
    let mut chunk = [0u8; NODE_READ_CHUNK];
    loop {
        match (&conn.out.stream).read(&mut chunk) {
            Ok(0) => {
                conn.out.draining.store(true, Ordering::SeqCst);
                return;
            }
            Ok(n) => {
                counters
                    .bytes_received
                    .fetch_add(n as u64, Ordering::Relaxed);
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.fatal = true;
                return;
            }
        }
    }
}

/// Parse buffered bytes: the handshake first, then wire2 frames,
/// each complete request frame dispatched to the worker pool. Parses
/// with a cursor and returns how many bytes were consumed, so the
/// caller compacts `rbuf` once per pass.
fn node_parse(conn: &mut NodeConn, jobs: &Sender<NodeJob>, shared: &NodeShared) -> usize {
    let counters = &shared.counters;
    let mut at = 0;
    loop {
        let buf = &conn.rbuf[at..];
        if buf.is_empty() {
            return at;
        }
        if !conn.negotiated {
            // Only a wire2 client is served: the connection is
            // rejected at the first byte that departs from the
            // preamble.
            let seen = buf.len().min(WIRE2_PREAMBLE.len());
            if buf[..seen] != WIRE2_PREAMBLE[..seen] {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                conn.fatal = true;
                return at;
            }
            if seen < WIRE2_PREAMBLE.len() {
                return at;
            }
            at += seen;
            conn.negotiated = true;
            if let Ok(ack) = encode_frame(FrameType::HelloAck, 0, &[]) {
                conn.out.write.lock().buf.extend_from_slice(&ack);
            }
            continue;
        }
        if buf.len() < WIRE2_HEADER_LEN {
            return at;
        }
        let mut header = [0u8; WIRE2_HEADER_LEN];
        header.copy_from_slice(&buf[..WIRE2_HEADER_LEN]);
        let hdr = match decode_header(&header) {
            Ok(hdr) => hdr,
            Err(_) => {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                // When the magic/version/type bytes are intact only
                // the length prefix is hostile and the mux id is still
                // trustworthy: the client gets an in-band error before
                // the connection drains. Anything else means the
                // stream is desynchronized — drop it.
                if header[0] == WIRE2_MAGIC
                    && header[1] == WIRE2_VERSION
                    && FrameType::from_byte(header[2]).is_some()
                {
                    let mux_id = u32::from_le_bytes([header[3], header[4], header[5], header[6]]);
                    let resp = Response::failure(
                        ERROR_RESPONSE_ID,
                        "frame rejected: payload length exceeds the frame bound",
                    );
                    conn.out
                        .write
                        .lock()
                        .buf
                        .extend_from_slice(&response_frame(mux_id, &resp));
                    conn.out.draining.store(true, Ordering::SeqCst);
                } else {
                    conn.fatal = true;
                }
                // Nothing after a rejected header can be framed:
                // discard the rest, so the rejection is answered once.
                return conn.rbuf.len();
            }
        };
        let total = WIRE2_HEADER_LEN + hdr.payload_len as usize;
        if buf.len() < total {
            return at;
        }
        let payload = buf[WIRE2_HEADER_LEN..total].to_vec();
        at += total;
        match hdr.frame_type {
            FrameType::BinRequest => {
                conn.out.in_flight.fetch_add(1, Ordering::SeqCst);
                let depth = shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                counters
                    .max_in_flight
                    .fetch_max(depth as u64, Ordering::Relaxed);
                let _ = jobs.send(NodeJob {
                    out: Arc::clone(&conn.out),
                    mux_id: hdr.request_id,
                    payload,
                });
            }
            FrameType::BinResponse | FrameType::HelloAck => {
                // Clients send request frames; anything else means
                // the stream is desynchronized.
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                conn.fatal = true;
                return at;
            }
        }
    }
}

/// Serve one connection after a readiness wait: read if the socket
/// reported input, parse, and flush. Returns false when the
/// connection must be dropped.
fn node_service(
    conn: &mut NodeConn,
    revents: c_short,
    jobs: &Sender<NodeJob>,
    shared: &NodeShared,
) -> bool {
    // An error or a hang-up (both directions shut) is reported even
    // when not asked for; nothing more can be exchanged either way.
    if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 {
        return false;
    }
    if revents & POLLIN != 0 && !conn.out.draining.load(Ordering::SeqCst) {
        node_read(conn, &shared.counters);
    }
    if !conn.fatal {
        let used = node_parse(conn, jobs, shared);
        conn.rbuf.drain(..used);
    }
    if conn.fatal {
        return false;
    }
    // Read the count before the buffer: a worker buffers its reply
    // before decrementing, so zero here means no reply is missing.
    let idle = conn.out.in_flight.load(Ordering::SeqCst) == 0;
    let mut write = conn.out.write.lock();
    write.flush(&conn.out.stream, &shared.counters);
    conn.want_write = write.pending();
    let failed = write.failed;
    drop(write);
    !(failed || idle && !conn.want_write && conn.out.draining.load(Ordering::SeqCst))
}

/// The node's single event loop. It blocks in `poll(2)` on the wake
/// socket, the listener and every connection, and runs one pass per
/// wake-up: read, parse, dispatch and flush each connection, then
/// accept. Dispatch workers write replies themselves, so the loop
/// only wakes for new input, writable backlogged sockets, closes and
/// shutdown.
fn node_event_loop(listener: &TcpListener, jobs: &Sender<NodeJob>, shared: &NodeShared) {
    let mut conns: Vec<NodeConn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut accept_paused_until: Option<Instant> = None;
    loop {
        let backoff = accept_paused_until.and_then(|until| {
            let left = until.saturating_duration_since(Instant::now());
            (!left.is_zero()).then_some(left)
        });
        let accepting = backoff.is_none();
        fds.clear();
        fds.push(PollFd::new(shared.wake_rx.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(
            listener.as_raw_fd(),
            if accepting { POLLIN } else { 0 },
        ));
        fds.extend(
            conns
                .iter()
                .map(|conn| PollFd::new(conn.out.stream.as_raw_fd(), conn.interest())),
        );
        if poll::wait(&mut fds, backoff).is_err() || shared.shutdown.load(Ordering::SeqCst) {
            // Dropping the connections shuts every socket down.
            return;
        }
        if fds[0].revents() != 0 {
            let mut sink = [0u8; 64];
            while matches!((&shared.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        // A worker's wake does not say which connection it was for, so
        // every connection is served; reads happen only where input
        // was reported.
        let mut polled = fds[2..].iter();
        conns.retain_mut(|conn| {
            let revents = polled.next().map_or(0, PollFd::revents);
            node_service(conn, revents, jobs, shared)
        });
        if accepting && fds[1].revents() != 0 {
            accept_paused_until = None;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.push(NodeConn::new(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                        ) => {}
                    Err(_) => {
                        accept_paused_until = Some(Instant::now() + NODE_ACCEPT_BACKOFF);
                        break;
                    }
                }
            }
        }
    }
}

/// Hosts a whole [`ServingRuntime`] behind a TCP listener for
/// [`RemoteWorker`] peers — the other process in the cross-process
/// sharding story.
///
/// A single poll-based event loop over nonblocking sockets owns every
/// accepted connection: it blocks in `poll(2)` until a socket is
/// ready, serves a connection only once it opens with
/// [`WIRE2_PREAMBLE`] (see [`crate::wire2`]), reassembles frames with
/// a bounded read, and dispatches decoded requests to a small fixed
/// pool of dispatch workers. Each worker writes its reply straight to
/// the request's connection, tagged with its mux id, and wakes the
/// loop only when the socket did not take every byte. There is no
/// thread-per-connection: hundreds of idle multiplexed clients cost
/// one thread total, and an idle node uses no CPU.
///
/// Requests the node serves run through the runtime's **full admission
/// path** — shedding, canary split, key routing — exactly like local
/// requests; the `forwarded` marker pins them to local shards so a node
/// that itself has remote shards never creates a forwarding loop.
pub struct RemoteRuntimeNode {
    runtime: ServingRuntime,
    addr: SocketAddr,
    shared: Arc<NodeShared>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for RemoteRuntimeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteRuntimeNode")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl RemoteRuntimeNode {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `runtime` with the default dispatch pool: twice the
    /// runtime's worker count, at least 4 — enough that the node's
    /// own workers stay fed even when some dispatchers sit in the
    /// admission queue.
    ///
    /// # Errors
    /// Returns [`ServeError::Transport`] when the listener cannot be
    /// bound or threads cannot be spawned.
    pub fn bind(addr: &str, runtime: ServingRuntime) -> Result<RemoteRuntimeNode, ServeError> {
        let dispatchers = (runtime.n_workers() * 2).max(4);
        RemoteRuntimeNode::bind_with_workers(addr, runtime, dispatchers)
    }

    /// [`bind`](Self::bind) with an explicit dispatch worker count
    /// (minimum 1).
    ///
    /// # Errors
    /// Returns [`ServeError::Transport`] when the listener cannot be
    /// bound or threads cannot be spawned.
    pub fn bind_with_workers(
        addr: &str,
        runtime: ServingRuntime,
        workers: usize,
    ) -> Result<RemoteRuntimeNode, ServeError> {
        let io = |e: std::io::Error| ServeError::Transport(format!("bind {addr}: {e}"));
        let listener = TcpListener::bind(addr).map_err(io)?;
        let local = listener.local_addr().map_err(io)?;
        listener.set_nonblocking(true).map_err(io)?;
        let (wake_tx, wake_rx) = UnixStream::pair().map_err(io)?;
        wake_tx.set_nonblocking(true).map_err(io)?;
        wake_rx.set_nonblocking(true).map_err(io)?;
        let shared = Arc::new(NodeShared {
            counters: TransportCounters::default(),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            wake_tx,
            wake_rx,
        });
        let (jobs_tx, jobs_rx) = unbounded::<NodeJob>();
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let jobs = jobs_rx.clone();
            let client = runtime.client();
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("willump-node-{i}"))
                .spawn(move || node_worker(&jobs, &client, &worker_shared))
                .map_err(|e| ServeError::Transport(format!("spawn node worker: {e}")))?;
            handles.push(handle);
        }
        // The event loop owns the only jobs sender: its exit
        // disconnects the channel and the workers drain out.
        drop(jobs_rx);
        let loop_shared = Arc::clone(&shared);
        let event = std::thread::Builder::new()
            .name("willump-node-events".to_string())
            .spawn(move || node_event_loop(&listener, &jobs_tx, &loop_shared))
            .map_err(|e| ServeError::Transport(format!("spawn node event loop: {e}")))?;
        Ok(RemoteRuntimeNode {
            runtime,
            addr: local,
            shared,
            event: Some(event),
            workers: handles,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted runtime (for stats inspection).
    pub fn runtime(&self) -> &ServingRuntime {
        &self.runtime
    }

    /// Node-side transport counters: frames served (`forwards`),
    /// cumulative service nanoseconds, bytes in both directions,
    /// frames rejected as oversized/corrupt (`decode_errors`), and
    /// the peak number of requests simultaneously in flight across
    /// all connections. `failures` and `reconnects` are client-side
    /// concepts and stay 0 here.
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.counters.snapshot()
    }

    /// Stop accepting, drain the dispatch workers, and shut the
    /// hosted runtime down. Idempotent; also runs on drop. Parked
    /// client connections are dropped, not waited for.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The event loop waits with no timeout; the wake socket ends
        // the wait and the loop sees the flag.
        self.shared.wake();
        if let Some(handle) = self.event.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.runtime.shutdown();
    }
}

impl Drop for RemoteRuntimeNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Consume (and discard) the rest of a reader — used by tests to hold
/// a connection open without reading.
#[cfg(test)]
fn drain<R: std::io::Read>(mut r: R) {
    let mut buf = [0u8; 256];
    while matches!(r.read(&mut buf), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Servable, ServerConfig};
    use crate::wire2::{encode_header, MAX_FRAME_PAYLOAD};
    use std::io::BufRead;
    use willump_data::{Table, Value};

    struct Scaler(f64);
    impl Servable for Scaler {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let col = table
                .column("x")
                .ok_or_else(|| "missing x".to_string())?
                .to_f64_vec()
                .map_err(|e| e.to_string())?;
            Ok(col.into_iter().map(|v| v * self.0).collect())
        }
    }

    fn runtime(factor: f64) -> ServingRuntime {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(1).build());
        b.endpoint("scale", Arc::new(Scaler(factor)));
        b.build().expect("runtime builds")
    }

    fn request(id: u64, x: f64) -> Request {
        Request {
            endpoint: Some("scale".to_string()),
            ..Request::new(id, vec![vec![("x".to_string(), Value::Float(x))]])
        }
    }

    /// Forward one request and return its scores.
    fn scores(worker: &impl WorkerTransport, id: u64, x: f64) -> Vec<f64> {
        worker
            .forward_request(&request(id, x))
            .expect("forward succeeds")
            .response
            .scores
    }

    #[test]
    fn remote_worker_round_trips_through_node() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        let resp = worker.forward_request(&request(7, 3.0)).unwrap().response;
        assert_eq!(resp.id, 7);
        assert_eq!(resp.scores, vec![6.0]);
        let stats = worker.stats();
        assert_eq!(stats.forwards, 1);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.reconnects, 0);
        assert!(stats.mean_latency() > 0.0);
        assert!(stats.bytes_sent > 0);
        assert!(stats.bytes_received > 0);
    }

    #[test]
    fn binary_forward_request_round_trips() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        let reply = worker.forward_request(&request(7, 3.0)).unwrap();
        assert_eq!(reply.response.id, 7);
        assert_eq!(reply.response.scores, vec![6.0]);
        assert!(reply.bytes_sent > 0);
        assert!(reply.bytes_received > 0);
        let stats = worker.stats();
        assert_eq!(stats.forwards, 1);
        assert_eq!(stats.max_in_flight, 1);
        assert_eq!(stats.decode_errors, 0);
        // The node's own counters see the same single frame.
        let node_stats = node.transport_stats();
        assert_eq!(node_stats.forwards, 1);
        assert_eq!(node_stats.decode_errors, 0);
        assert!(node_stats.bytes_sent > 0 && node_stats.bytes_received > 0);
    }

    #[test]
    fn remote_worker_reconnects_after_node_restart() {
        let mut node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let addr = node.local_addr().to_string();
        let worker = RemoteWorker::new(&addr).with_timeout(Duration::from_secs(2));
        assert!(worker.forward_request(&request(1, 1.0)).is_ok());
        node.shutdown();

        // Node down: the forward fails (counted), connection dropped.
        assert!(matches!(
            worker.forward_request(&request(2, 1.0)),
            Err(ServeError::Transport(_))
        ));
        assert_eq!(worker.stats().failures, 1);

        // Node back (same port): the next forward reconnects.
        let mut node2 = RemoteRuntimeNode::bind(&addr, runtime(2.0)).expect("rebinds");
        assert_eq!(scores(&worker, 3, 5.0), vec![10.0]);
        assert_eq!(worker.stats().reconnects, 1);

        // Restart again while the worker holds a live-looking mux
        // connection: the dead connection falls through to a fresh
        // dial, which must ALSO count as a reconnect — and not as a
        // failure, since the forward succeeds.
        node2.shutdown();
        let _node3 = RemoteRuntimeNode::bind(&addr, runtime(2.0)).expect("rebinds again");
        assert_eq!(scores(&worker, 4, 7.0), vec![14.0]);
        assert_eq!(worker.stats().reconnects, 2);
        assert_eq!(worker.stats().failures, 1);
    }

    #[test]
    fn circuit_breaker_fails_fast_then_recovers() {
        let mut node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let addr = node.local_addr().to_string();
        let worker = RemoteWorker::new(&addr)
            .with_timeout(Duration::from_secs(2))
            .with_breaker(2, Duration::from_millis(100));
        assert!(worker.forward_request(&request(1, 1.0)).is_ok());
        node.shutdown();

        // Two real failures open the breaker…
        assert!(worker.forward_request(&request(2, 1.0)).is_err());
        assert!(worker.forward_request(&request(3, 1.0)).is_err());
        // …after which forwards fail fast without dialing.
        match worker.forward_request(&request(4, 1.0)) {
            Err(ServeError::Transport(msg)) => {
                assert!(msg.contains("circuit open"), "got: {msg}");
            }
            other => panic!("expected open-circuit error, got {other:?}"),
        }
        assert_eq!(worker.stats().failures, 3);

        // The node comes back; once the cool-down elapses, the
        // half-open trial succeeds and closes the breaker.
        let _node2 = RemoteRuntimeNode::bind(&addr, runtime(2.0)).expect("rebinds");
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(scores(&worker, 5, 3.0), vec![6.0]);
        assert!(
            worker.forward_request(&request(6, 1.0)).is_ok(),
            "breaker closed"
        );
    }

    #[test]
    fn counter_probes_do_not_count_as_forwards() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        assert!(worker.forward_request(&request(1, 1.0)).is_ok());
        let before = worker.stats();
        // Probes must not inflate forwards or dilute mean latency.
        assert!(worker.probe_counters("scale", 1).is_ok());
        assert!(worker.probe_counters("nonesuch", 1).is_err());
        let after = worker.stats();
        assert_eq!(after.forwards, before.forwards);
        assert_eq!(after.total_nanos, before.total_nanos);
        assert_eq!(after.failures, before.failures);
    }

    #[test]
    fn concurrent_forwards_overlap_via_the_mux() {
        struct SlowScaler(Duration);
        impl Servable for SlowScaler {
            fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
                std::thread::sleep(self.0);
                Scaler(2.0).predict_table(table)
            }
        }
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(4).build());
        b.endpoint("scale", Arc::new(SlowScaler(Duration::from_millis(200))))
            .shards(4);
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().unwrap()).expect("binds");
        let worker = Arc::new(RemoteWorker::new(&node.local_addr().to_string()));

        // 4 concurrent forwards through ONE transport: a serialized
        // connection would need >= 800ms; the mux tags each forward
        // and overlaps the round trips on a single socket.
        let start = Instant::now();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let worker = Arc::clone(&worker);
                s.spawn(move || {
                    let reply = worker.forward_request(&request(i + 1, i as f64)).unwrap();
                    assert_eq!(reply.response.scores, vec![2.0 * i as f64]);
                });
            }
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(600),
            "4 x 200ms forwards must overlap, took {elapsed:?}"
        );
        assert_eq!(worker.stats().forwards, 4);
        assert_eq!(worker.stats().failures, 0);
        assert!(worker.stats().max_in_flight >= 2, "forwards overlapped");
    }

    #[test]
    fn in_process_worker_forwards_and_counts() {
        let target = runtime(3.0);
        let worker = InProcessWorker::new(&target);
        // Descriptions identify the backend runtime, so two workers
        // for one runtime dedupe while distinct runtimes do not.
        assert!(worker.describe().starts_with("in-process:"));
        assert_eq!(worker.describe(), InProcessWorker::new(&target).describe());
        // The request reaches the target as a struct: no bytes move.
        let reply = worker.forward_request(&request(4, 2.0)).unwrap();
        assert_eq!(reply.response.scores, vec![6.0]);
        assert_eq!((reply.bytes_sent, reply.bytes_received), (0, 0));
        assert_eq!(worker.stats().forwards, 1);
        assert!(worker.probe_counters("scale", 1).is_ok());
        assert_eq!(worker.stats().forwards, 2, "the default probe is a forward");
        drop(target);
        assert!(worker.forward_request(&request(5, 1.0)).is_err());
        assert_eq!(worker.stats().failures, 1);
    }

    #[test]
    fn node_shutdown_survives_parked_connections() {
        let mut node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        // Open a connection and never send anything: the event loop
        // must not pin shutdown on it.
        let parked = TcpStream::connect(node.local_addr()).expect("connects");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drain(&parked);
            let _ = tx.send(());
        });
        node.shutdown();
        node.shutdown(); // idempotent
                         // The event loop dropped our connection (read side saw EOF)
                         // despite us never sending a frame.
        rx.recv_timeout(Duration::from_secs(5))
            .expect("node shutdown must close parked connections");
    }

    /// A hand-rolled peer on an ephemeral port: each accepted
    /// connection is handed to `serve` on its own thread.
    fn spawn_peer(serve: fn(TcpStream)) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                std::thread::spawn(move || serve(stream));
            }
        });
        addr
    }

    /// A forward whose response frame arrives but does not decode is
    /// a failure, never also a success: it counts once in `failures`
    /// and `decode_errors`, not in `forwards`, and three of them open
    /// the breaker.
    #[test]
    fn undecodable_replies_count_as_failures_and_open_the_breaker() {
        // A wire2 peer that answers every request with 16 garbage
        // payload bytes under the right mux id.
        let addr = spawn_peer(|stream| {
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut writer = stream;
            let mut preamble = [0u8; WIRE2_PREAMBLE.len()];
            if reader.read_exact(&mut preamble).is_err() {
                return;
            }
            let ack = encode_frame(FrameType::HelloAck, 0, &[]).expect("encodes");
            if writer.write_all(&ack).is_err() {
                return;
            }
            while let Ok(Some((hdr, _))) = read_frame(&mut reader) {
                let garbage = encode_frame(FrameType::BinResponse, hdr.request_id, &[0xAB; 16])
                    .expect("encodes");
                if writer.write_all(&garbage).is_err() {
                    return;
                }
            }
        });
        let worker = RemoteWorker::new(&addr.to_string()).with_timeout(Duration::from_secs(5));
        for id in 1..=REMOTE_WORKER_BREAKER_FAILURES {
            assert!(matches!(
                worker.forward_request(&request(id, 1.0)),
                Err(ServeError::Transport(_))
            ));
        }
        let stats = worker.stats();
        assert_eq!(stats.forwards, 0);
        assert_eq!(stats.total_nanos, 0);
        assert_eq!(stats.failures, 3);
        assert_eq!(stats.decode_errors, 3);
        assert_eq!(worker.state(), BreakerState::Open);
    }

    /// The node serves only wire2: a client that opens with a JSON
    /// line is dropped unanswered and counted, and the node keeps
    /// serving wire2 clients.
    #[test]
    fn node_drops_a_connection_that_opens_without_the_preamble() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let mut stream = TcpStream::connect(node.local_addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let line = crate::protocol::encode_request(&request(1, 1.0)).expect("encodes");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("writes");
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Ok(n) => assert_eq!(n, 0, "the node must not answer: {:?}", &buf[..n]),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "the node must close the connection, not leave it open: {e}"
            ),
        }
        assert_eq!(node.transport_stats().decode_errors, 1);
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        assert_eq!(scores(&worker, 2, 4.0), vec![8.0]);
    }

    /// A worker whose peer answers the preamble with anything but a
    /// `HelloAck` fails that forward promptly as a transport error.
    #[test]
    fn worker_fails_a_dial_answered_without_hello_ack() {
        // A peer that answers every line — the preamble included —
        // with a JSON error line.
        let addr = spawn_peer(|stream| {
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                line.clear();
                let reply = crate::protocol::encode_response(&Response::failure(0, "bad frame"))
                    .expect("encodes");
                if writer.write_all(format!("{reply}\n").as_bytes()).is_err() {
                    return;
                }
            }
        });
        let worker = RemoteWorker::new(&addr.to_string()).with_timeout(Duration::from_secs(5));
        let start = Instant::now();
        match worker.forward_request(&request(1, 1.0)) {
            Err(ServeError::Transport(msg)) => assert!(msg.contains("negotiation"), "{msg}"),
            other => panic!("expected a transport error, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(2), "no timeout wait");
        assert_eq!(worker.stats().failures, 1);
        assert_eq!(worker.stats().forwards, 0);
    }

    /// Connect a raw wire2 client: send the preamble, consume the
    /// HelloAck, and return the negotiated stream halves.
    fn raw_wire2_client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        writer.write_all(WIRE2_PREAMBLE).expect("preamble");
        let (hdr, _) = read_frame(&mut reader).expect("ack").expect("not eof");
        assert_eq!(hdr.frame_type, FrameType::HelloAck);
        (writer, reader)
    }

    #[test]
    fn oversized_frames_get_an_in_band_error_then_the_connection_drains() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        // A header whose magic/version/type are intact but whose
        // length prefix exceeds the bound: the node must refuse to
        // allocate, answer in band on the frame's mux id, and drain.
        let header = encode_header(FrameType::BinRequest, 9, MAX_FRAME_PAYLOAD + 1);
        writer.write_all(&header).expect("writes");
        let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
        assert_eq!(hdr.frame_type, FrameType::BinResponse);
        assert_eq!(hdr.request_id, 9);
        let resp = decode_response_payload(&payload).expect("decodes");
        let err = resp.error.expect("is an error");
        assert!(err.contains("exceeds"), "got: {err}");
        // The connection drains after the error.
        assert!(matches!(read_frame(&mut reader), Ok(None)));
        assert_eq!(node.transport_stats().decode_errors, 1);
    }

    #[test]
    fn corrupt_frames_drop_the_connection() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        // Garbage where a header should be: the stream cannot be
        // resynchronized, so the node hangs up.
        writer
            .write_all(&[0xFFu8; WIRE2_HEADER_LEN])
            .expect("writes");
        assert!(matches!(read_frame(&mut reader), Ok(None)));
        assert_eq!(node.transport_stats().decode_errors, 1);
    }

    #[test]
    fn undecodable_binary_payloads_fail_in_band_without_dropping() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        // Framing intact, payload garbage: only this request fails.
        let bad = encode_frame(FrameType::BinRequest, 5, &[0xAB; 16]).expect("encodes");
        writer.write_all(&bad).expect("writes");
        let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
        assert_eq!(
            (hdr.frame_type, hdr.request_id),
            (FrameType::BinResponse, 5)
        );
        let resp = decode_response_payload(&payload).expect("decodes");
        assert!(resp.error.expect("is an error").contains("decode failed"));
        // The connection is still in service for well-formed frames.
        let good = encode_frame(
            FrameType::BinRequest,
            6,
            &encode_request_payload(&request(6, 3.0)),
        )
        .expect("encodes");
        writer.write_all(&good).expect("writes");
        let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
        assert_eq!(hdr.request_id, 6);
        let resp = decode_response_payload(&payload).expect("decodes");
        assert_eq!(resp.scores, vec![6.0]);
        assert_eq!(node.transport_stats().decode_errors, 1);
    }
}
