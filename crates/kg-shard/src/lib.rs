//! The shard-server process: a TCP listener speaking the framed shard
//! protocol (`kg-core` framing around the `kg-aqp` remote protocol), plus a
//! minimal HTTP admin endpoint for liveness and readiness probes.
//!
//! One `kg-shard` process loads the full graph (from a snapshot or by
//! regenerating the dataset), partitions it with the same deterministic
//! partitioner as the coordinator, and serves *every* shard's stratum work
//! through one [`ShardServerCore`] — which shard a request addresses is in
//! the request itself. A deployment therefore runs K identical processes
//! for fault isolation, not because each holds different bytes; any
//! replica can answer for any shard, which is what makes hedging and
//! failover trivially correct.
//!
//! The protocol listener is deliberately dumb: accept, read one frame,
//! serve, write one frame, repeat until the peer hangs up. All policy
//! (deadlines, retries, hedging) lives in the coordinator's fleet layer.
//! Malformed frames close the connection with a structured stderr line —
//! never a panic (`kg-core`'s decoder is fuzzed for exactly this).

use kg_aqp::ShardServerCore;
use kg_core::{read_frame, write_frame, FrameError};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// A running shard protocol listener. Dropping the handle does not stop
/// the accept loop (server processes run until killed); it exists to
/// report the bound address.
pub struct ShardListener {
    local_addr: std::net::SocketAddr,
}

impl ShardListener {
    /// The address the listener actually bound (resolves `:0` requests).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }
}

/// Binds `addr` and serves the framed shard protocol on it forever, one
/// thread per connection. A coordinator keeps its connections between
/// calls, so that is a thread per connection, not per call; a connection
/// that idles in the coordinator's pool parks its thread here, and the
/// pool's cap (`MAX_IDLE_CONNECTIONS` in `kg_aqp::remote::transport`) is
/// what bounds how many one coordinator can park.
pub fn serve_protocol(core: Arc<ShardServerCore>, addr: &str) -> std::io::Result<ShardListener> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    thread::Builder::new()
        .name("kg-shard-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                match stream {
                    Ok(stream) => {
                        let core = Arc::clone(&core);
                        let _ = thread::Builder::new()
                            .name("kg-shard-conn".to_string())
                            .spawn(move || serve_connection(&core, stream));
                    }
                    Err(e) => eprintln!("kg-shard: accept failed: {e}"),
                }
            }
        })?;
    Ok(ShardListener { local_addr })
}

/// One connection's request loop: frames in, frames out, until EOF or a
/// frame error. A clean peer hangup is silent; anything else logs one
/// structured line and closes.
fn serve_connection(core: &ShardServerCore, mut stream: TcpStream) {
    // A response is one small write the peer is waiting on: never hold it
    // back to coalesce. Best effort — a failure only costs latency.
    let _ = stream.set_nodelay(true);
    loop {
        let (codec, payload) = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => return,
            // Zero bytes of the next 9-byte header means the peer closed
            // between frames — how a kept connection normally ends, not a
            // malformed frame.
            Err(FrameError::Truncated {
                got: 0,
                expected: 9,
            }) => return,
            Err(e) => {
                eprintln!(
                    "kg-shard: closing connection on malformed frame: {e} \
                     (peer {})",
                    stream
                        .peer_addr()
                        .map_or_else(|_| "unknown".to_string(), |a| a.to_string())
                );
                return;
            }
        };
        let response = core.serve(codec, &payload);
        if let Err(e) = write_frame(&mut stream, codec, &response) {
            eprintln!("kg-shard: dropping response: {e}");
            return;
        }
        if stream.flush().is_err() {
            return;
        }
    }
}

/// A running admin listener; see [`serve_admin`].
pub struct AdminListener {
    local_addr: std::net::SocketAddr,
}

impl AdminListener {
    /// The address the admin endpoint actually bound.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }
}

/// Binds a minimal HTTP/1.1 admin endpoint with the two probe routes:
///
/// | route | meaning |
/// |---|---|
/// | `GET /livez` | `200` as soon as the process can accept connections |
/// | `GET /readyz` | `503` until `ready` flips true (graph loaded, partitioned, shard core registered), then `200` |
///
/// Liveness and readiness are deliberately split: a process that is alive
/// but still loading its snapshot must not be routed traffic, and a
/// supervisor must not kill it for being unready.
pub fn serve_admin(addr: &str, ready: Arc<AtomicBool>) -> std::io::Result<AdminListener> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    thread::Builder::new()
        .name("kg-shard-admin".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let ready = ready.load(Ordering::SeqCst);
                let _ = serve_admin_request(stream, ready);
            }
        })?;
    Ok(AdminListener { local_addr })
}

fn serve_admin_request(stream: TcpStream, ready: bool) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers (bounded: stop at the blank line or 64 lines).
    for _ in 0..64 {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, reason, body) = match (method, path) {
        ("GET", "/livez") => (200, "OK", r#"{"status":"alive"}"#),
        ("GET", "/readyz") if ready => (200, "OK", r#"{"status":"ready"}"#),
        ("GET", "/readyz") => (503, "Service Unavailable", r#"{"status":"starting"}"#),
        _ => (404, "Not Found", r#"{"error":"not_found"}"#),
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}
