//! Shard transports: real TCP and a deterministic in-process fake with
//! scripted fault injection.
//!
//! A [`ShardTransport`] carries one framed request to one endpoint and
//! returns the decoded response payload. The fleet layer above it owns all
//! policy (deadlines are passed down; retries, hedging and failover happen
//! above), which keeps the transports dumb enough that the in-process fake
//! and the TCP implementation are interchangeable in tests.
//!
//! [`FaultPlan`] scripts per-endpoint failure schedules — delays, drops,
//! disconnects, garbage bytes, and whole-endpoint kills — so every failure
//! mode the fleet must survive is driven deterministically by tests rather
//! than by timing luck. Garbage frames are run through the real
//! `kg_core::read_frame` decoder, exercising the same error path a hostile
//! or corrupted peer would hit on the wire.

use crate::remote::server::ShardServerCore;
use kg_core::{read_frame, write_frame, Codec, FrameError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a transport call failed. Every variant is retryable from the
/// fleet's perspective; the distinction feeds metrics and tests.
#[derive(Clone, Debug)]
pub enum TransportError {
    /// Could not connect (refused, unreachable, endpoint unknown).
    Connect(String),
    /// The per-request deadline elapsed before a full response arrived.
    TimedOut,
    /// The connection dropped mid-exchange.
    Disconnected(String),
    /// The peer sent bytes that failed frame decoding.
    Garbage(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Connect(e) => write!(f, "connect failed: {e}"),
            Self::TimedOut => write!(f, "request deadline elapsed"),
            Self::Disconnected(e) => write!(f, "connection dropped: {e}"),
            Self::Garbage(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

fn classify(err: FrameError) -> TransportError {
    match err {
        FrameError::Io(e) => {
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
            {
                TransportError::TimedOut
            } else {
                TransportError::Disconnected(e.to_string())
            }
        }
        FrameError::Truncated { .. } => TransportError::Disconnected(err.to_string()),
        other => TransportError::Garbage(other.to_string()),
    }
}

/// One request/response exchange with a shard endpoint.
pub trait ShardTransport: Send + Sync {
    /// Sends `payload` (already protocol-encoded in `codec`) to `endpoint`
    /// and returns the response payload with its codec. Must return — not
    /// block past — `deadline`.
    fn call(
        &self,
        endpoint: &str,
        codec: Codec,
        payload: &[u8],
        deadline: Instant,
    ) -> Result<(Codec, Vec<u8>), TransportError>;
}

/// Real TCP transport over connections that are kept between calls.
///
/// **Lifecycle of a call.** Check out an idle connection to the endpoint
/// (or connect, with `TCP_NODELAY`, when none is idle) → one request frame
/// out, one response frame in, every read and write armed with the time
/// *this* call's deadline has left → return the connection to the pool.
/// The return happens only after a complete, well-framed response: a
/// connection that timed out, errored, or delivered a partial or malformed
/// frame is dropped, never pooled, because a late response on it would
/// answer the *next* request.
///
/// **Stale sockets.** A peer may hang up while a connection idles (a
/// restarted shard, a relay that serves one request per connection). When
/// the exchange on a *reused* connection ends in a disconnect, the call
/// performs it once more on a fresh connection, inside the same deadline.
/// That is safe because a response is a pure function of its request (see
/// [`crate::remote::server`]), and it is invisible to the fleet: no retry,
/// timeout or garbage counter moves. A fresh connection gets no second
/// chance — its failure is the endpoint's.
///
/// **Why the pool is process-wide.** `TcpTransport` is a unit struct that
/// callers construct by value wherever they need one, so every value is
/// indistinguishable from every other; the idle connections therefore live
/// in one private pool beside the type rather than in any one value. The
/// pool holds at most `MAX_IDLE_CONNECTIONS` (64) of them.
pub struct TcpTransport;

/// Idle connections the process keeps, over all endpoints; the oldest is
/// closed when one more is returned. Each idle connection parks one
/// connection thread on its shard server and holds one descriptor on each
/// side, so this is also the most a coordinator can park on a server. 64
/// covers a connection per service worker per stratum for the deployments
/// the docs describe (the default 4 workers over up to 16 shards); past it
/// the extra calls simply connect, as every call did before the pool.
const MAX_IDLE_CONNECTIONS: usize = 64;

/// The pool: most recently returned last, so a checkout takes the warmest
/// connection and eviction the coldest.
static IDLE: Mutex<Vec<(SocketAddr, TcpStream)>> = Mutex::new(Vec::new());

/// TCP connections opened by [`TcpTransport`] in this process.
static CONNECTS: AtomicU64 = AtomicU64::new(0);

/// How many TCP connections [`TcpTransport`] has opened in this process;
/// against the fleet's `requests` it tells whether calls reuse sockets.
pub(crate) fn connects_opened() -> u64 {
    CONNECTS.load(Ordering::Relaxed)
}

fn checkout(addr: SocketAddr) -> Option<TcpStream> {
    let mut idle = IDLE.lock().expect("pool updates cannot panic");
    let at = idle.iter().rposition(|(a, _)| *a == addr)?;
    Some(idle.remove(at).1)
}

fn checkin(addr: SocketAddr, stream: TcpStream) {
    let mut idle = IDLE.lock().expect("pool updates cannot panic");
    let evicted = (idle.len() >= MAX_IDLE_CONNECTIONS).then(|| idle.remove(0));
    idle.push((addr, stream));
    drop(idle);
    // Closed outside the lock.
    drop(evicted);
}

/// The time `deadline` has left, if any (a zero socket timeout is an error,
/// not "no time").
fn time_left(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
}

fn connect(addr: SocketAddr, deadline: Instant) -> Result<TcpStream, TransportError> {
    let remaining = time_left(deadline).ok_or(TransportError::TimedOut)?;
    let stream = TcpStream::connect_timeout(&addr, remaining)
        .map_err(|e| TransportError::Connect(e.to_string()))?;
    // A frame is one small write followed by a read: never wait to coalesce.
    stream
        .set_nodelay(true)
        .map_err(|e| TransportError::Connect(e.to_string()))?;
    CONNECTS.fetch_add(1, Ordering::Relaxed);
    Ok(stream)
}

/// A stream whose every read and write gets only the time `deadline` has
/// left. A socket timeout set once per call would apply to each `read`
/// separately — `read_frame` issues several — so a peer that drips bytes
/// could hold the call for a multiple of its deadline.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Deadlined<'_> {
    fn remaining(&self) -> io::Result<Duration> {
        time_left(self.deadline).ok_or_else(|| io::ErrorKind::TimedOut.into())
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.remaining()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.remaining()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One request frame out, one response frame in, by `deadline`.
fn exchange(
    stream: &TcpStream,
    codec: Codec,
    payload: &[u8],
    deadline: Instant,
) -> Result<(Codec, Vec<u8>), TransportError> {
    let mut stream = Deadlined { stream, deadline };
    write_frame(&mut stream, codec, payload).map_err(classify)?;
    read_frame(&mut stream).map_err(classify)
}

impl ShardTransport for TcpTransport {
    fn call(
        &self,
        endpoint: &str,
        codec: Codec,
        payload: &[u8],
        deadline: Instant,
    ) -> Result<(Codec, Vec<u8>), TransportError> {
        let addr = endpoint
            .parse::<SocketAddr>()
            .map_err(|e| TransportError::Connect(format!("bad endpoint {endpoint}: {e}")))?;
        if let Some(stream) = checkout(addr) {
            match exchange(&stream, codec, payload, deadline) {
                Ok(response) => {
                    checkin(addr, stream);
                    return Ok(response);
                }
                // The peer hung up while the connection idled: not a fault
                // of this request, which goes out again below.
                Err(TransportError::Disconnected(_)) => {}
                Err(error) => return Err(error),
            }
        }
        let stream = connect(addr, deadline)?;
        let response = exchange(&stream, codec, payload, deadline)?;
        checkin(addr, stream);
        Ok(response)
    }
}

/// A scripted fault for one future request to one endpoint.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Delay the response by this many milliseconds (still answering if
    /// the deadline allows; a delay past the deadline becomes a timeout).
    Delay(u64),
    /// Swallow the request: the caller observes a deadline timeout.
    Drop,
    /// Sever the connection mid-response.
    Disconnect,
    /// Answer with garbage bytes (fed through the real frame decoder).
    Garbage,
}

/// Deterministic per-endpoint fault schedules, injectable into
/// [`InProcessTransport`]. Each request to an endpoint pops the next
/// scheduled action (no action → healthy service). Killed endpoints fail
/// every request until revived — the in-process analogue of a dead shard
/// process.
#[derive(Default)]
pub struct FaultPlan {
    schedules: Mutex<HashMap<String, VecDeque<FaultAction>>>,
    killed: Mutex<HashSet<String>>,
}

impl FaultPlan {
    /// An empty plan: every request is served healthily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `action` to `endpoint`'s schedule (FIFO; one action is
    /// consumed per request).
    pub fn push(&self, endpoint: &str, action: FaultAction) {
        self.schedules
            .lock()
            .unwrap()
            .entry(endpoint.to_string())
            .or_default()
            .push_back(action);
    }

    /// Marks `endpoint` dead: every request fails with a connect error
    /// until [`Self::revive`].
    pub fn kill(&self, endpoint: &str) {
        self.killed.lock().unwrap().insert(endpoint.to_string());
    }

    /// Brings a killed endpoint back to life.
    pub fn revive(&self, endpoint: &str) {
        self.killed.lock().unwrap().remove(endpoint);
    }

    fn is_killed(&self, endpoint: &str) -> bool {
        self.killed.lock().unwrap().contains(endpoint)
    }

    fn next_action(&self, endpoint: &str) -> Option<FaultAction> {
        self.schedules
            .lock()
            .unwrap()
            .get_mut(endpoint)
            .and_then(VecDeque::pop_front)
    }
}

/// In-process transport: endpoints map straight onto [`ShardServerCore`]s,
/// with a shared [`FaultPlan`] interposed. Requests and responses still
/// pass through real frame encode/decode so the garbage and truncation
/// paths exercise production code.
pub struct InProcessTransport {
    endpoints: HashMap<String, Arc<ShardServerCore>>,
    faults: Arc<FaultPlan>,
}

impl InProcessTransport {
    /// Builds a transport over named endpoint → server-core bindings.
    pub fn new(endpoints: HashMap<String, Arc<ShardServerCore>>, faults: Arc<FaultPlan>) -> Self {
        Self { endpoints, faults }
    }
}

impl ShardTransport for InProcessTransport {
    fn call(
        &self,
        endpoint: &str,
        codec: Codec,
        payload: &[u8],
        deadline: Instant,
    ) -> Result<(Codec, Vec<u8>), TransportError> {
        if self.faults.is_killed(endpoint) {
            return Err(TransportError::Connect(format!(
                "{endpoint}: connection refused (killed)"
            )));
        }
        let core = self
            .endpoints
            .get(endpoint)
            .ok_or_else(|| TransportError::Connect(format!("{endpoint}: unknown endpoint")))?;
        match self.faults.next_action(endpoint) {
            Some(FaultAction::Delay(ms)) => {
                let wake = Instant::now() + Duration::from_millis(ms);
                if wake > deadline {
                    // Sleep only to the deadline: the caller's read would
                    // have timed out there.
                    let until = deadline.saturating_duration_since(Instant::now());
                    std::thread::sleep(until);
                    return Err(TransportError::TimedOut);
                }
                std::thread::sleep(Duration::from_millis(ms));
            }
            Some(FaultAction::Drop) => {
                let until = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(until);
                return Err(TransportError::TimedOut);
            }
            Some(FaultAction::Disconnect) => {
                return Err(TransportError::Disconnected(format!(
                    "{endpoint}: connection reset by peer"
                )));
            }
            Some(FaultAction::Garbage) => {
                // Hand hostile bytes to the *real* frame decoder, same as a
                // corrupted TCP stream would.
                let garbage = b"\xDE\xAD\xBE\xEF not a frame at all";
                let result = read_frame(&mut &garbage[..]);
                return Err(classify(result.expect_err("garbage must not decode")));
            }
            None => {}
        }
        if Instant::now() >= deadline {
            return Err(TransportError::TimedOut);
        }
        // Round-trip through real framing so oversized/truncated handling
        // stays on the production path.
        let mut wire = Vec::new();
        write_frame(&mut wire, codec, payload).map_err(classify)?;
        let (codec, request) = read_frame(&mut wire.as_slice()).map_err(classify)?;
        let response = core.serve(codec, &request);
        let mut wire = Vec::new();
        write_frame(&mut wire, codec, &response).map_err(classify)?;
        read_frame(&mut wire.as_slice()).map_err(classify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Returning one connection more than the pool holds closes the oldest:
    /// the pool — and so what one process parks on its servers — is bounded.
    #[test]
    fn the_pool_is_bounded_and_evicts_the_oldest() {
        // Never accepted: the connections complete in the listen backlog.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let opened_before = connects_opened();
        let mut local_ports = Vec::new();
        for _ in 0..=MAX_IDLE_CONNECTIONS {
            let stream = connect(addr, deadline).unwrap();
            local_ports.push(stream.local_addr().unwrap().port());
            checkin(addr, stream);
        }
        assert!(connects_opened() - opened_before > MAX_IDLE_CONNECTIONS as u64);
        assert_eq!(IDLE.lock().unwrap().len(), MAX_IDLE_CONNECTIONS);

        // Warmest first; the first connection returned is the one missing.
        let mut kept = Vec::new();
        while let Some(stream) = checkout(addr) {
            kept.push(stream.local_addr().unwrap().port());
        }
        kept.reverse();
        assert_eq!(kept, local_ports[1..]);
    }
}
