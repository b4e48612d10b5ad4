//! A std-only HTTP/1.1 + JSON endpoint over [`Service`].
//!
//! No async runtime and no HTTP dependency: a [`std::net::TcpListener`]
//! accept loop hands each connection to a short-lived thread that parses
//! one request, routes it, and closes. That is deliberately boring, and the
//! wire surface stays auditable, but connection handling now costs more
//! than the engine work: on 2 shared vCPUs, a bare `/livez` round trip over
//! loopback (connect, one request, read to close) takes a median 0.07–0.09
//! ms, while an in-process [`Service::execute`] over the benchmark's query
//! stream, each pass from cold caches, takes a median 0.05 ms. Kept
//! connections are ROADMAP item 8.
//!
//! Routes:
//!
//! | Method & path | Behaviour |
//! |---|---|
//! | `POST /query` | v2 body `{"v": 2, "query": .., "targets"?: {"error_bound"?, "confidence"?}, "deadline_ms"?, "tenant"?}` (an untagged v1 flat body is upgraded to v2) → `200` with `{"answer": ..}`, `400` malformed, `422` unresolvable, `429` tenant quota, `503` shed, `504` deadline expired before planning |
//! | `POST /v2/write` | body `{"v"?: 2, "ops": [{"op": "upsert_entity"\|"upsert_edge"\|"delete_edge", ..}, ..], "compact"?: bool}` → `200` with the [`crate::WriteOutcome`] JSON (applied counts, compaction, component-scoped evictions, write epoch), `400` malformed, `503` shutting down |
//! | `GET /metrics.prom` | `200` with the [`crate::MetricsSnapshot`] in the Prometheus text exposition format (`text/plain; version=0.0.4`), its one encoding |
//! | `GET /livez` | liveness: `200` `{"status":"alive"}` as soon as the listener is up |
//! | `GET /healthz` | legacy alias of `/livez` (kept as `200` `{"status":"ok"}` for existing probes) |
//! | `GET /readyz` | readiness: `503` `{"status":"starting"}` until boot (snapshot load, partitioning, boot snapshot write, remote handshake) completes, then `200` `{"status":"ready"}`; flips back to `503` on shutdown |
//!
//! Every error body is structured:
//! `{"error": {"code": .., "kind": .., "message": ..}}`, where `code` is the
//! stable machine-readable identifier from [`ServiceError::code`] (`kind` is
//! its legacy alias). The full `ServiceError → (status, code)` table lives
//! on [`ServiceError::http_status`].

use crate::request::{QueryRequest, ServiceError, WriteRequest};
use crate::service::Service;
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Largest accepted request body; larger submissions get `413`.
const MAX_BODY_BYTES: usize = 1 << 20;
/// Longest accepted request/header line and most header lines per request:
/// without these caps a client streaming an endless header could grow the
/// line buffer without limit.
const MAX_LINE_BYTES: usize = 8 << 10;
const MAX_HEADER_LINES: usize = 100;
/// Per-connection socket timeout: a stalled client cannot pin a thread.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a handler waits for the worker pool before answering `504`
/// (the request stays in flight; the client can re-poll).
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running HTTP endpoint; dropping it (or calling [`Self::shutdown`])
/// stops the accept loop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `service`.
    pub fn serve(service: Arc<Service>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name("kg-service-http".to_string())
            .spawn(move || accept_loop(listener, service, accept_stop))?;
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` by connecting to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, service: Arc<Service>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let service = Arc::clone(&service);
        // One short-lived thread per connection; handlers bound their own
        // lifetime via socket timeouts, so no tracking is needed.
        let _ = thread::Builder::new()
            .name("kg-service-conn".to_string())
            .spawn(move || handle_connection(stream, &service));
    }
}

/// Response payload: JSON for every API route, plain text for the
/// Prometheus exposition endpoint.
enum Body {
    Json(Value),
    Text(String),
}

struct Response {
    status: u16,
    body: Body,
}

impl Response {
    fn new(status: u16, body: Value) -> Self {
        Self {
            status,
            body: Body::Json(body),
        }
    }

    fn text(status: u16, body: String) -> Self {
        Self {
            status,
            body: Body::Text(body),
        }
    }

    fn error(status: u16, code: &str, message: impl Into<String>) -> Self {
        let mut inner = serde_json::Map::new();
        inner.insert("code".to_string(), Value::String(code.to_string()));
        inner.insert("kind".to_string(), Value::String(code.to_string()));
        inner.insert("message".to_string(), Value::String(message.into()));
        let mut map = serde_json::Map::new();
        map.insert("error".to_string(), Value::Object(inner));
        Self::new(status, Value::Object(map))
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

fn handle_connection(stream: TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let response = match read_request(&mut reader) {
        Err(response) => response,
        Ok((method, path, body)) => route(service, &method, &path, &body),
    };
    write_response(stream, &response);
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes.
fn read_line_capped(reader: &mut BufReader<TcpStream>) -> Result<String, Response> {
    let mut line = String::new();
    let read = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(&mut line);
    match read {
        Err(_) => Err(Response::error(400, "malformed_request", "unreadable line")),
        Ok(_) if line.len() > MAX_LINE_BYTES => Err(Response::error(
            400,
            "malformed_request",
            format!("line exceeds {MAX_LINE_BYTES} bytes"),
        )),
        Ok(_) => Ok(line),
    }
}

/// Parses one HTTP/1.1 request: request line, headers (for
/// `Content-Length`), body. Errors are already shaped as responses.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<(String, String, String), Response> {
    let request_line = read_line_capped(reader)?;
    if request_line.trim().is_empty() {
        return Err(Response::error(400, "malformed_request", "empty request"));
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return Err(Response::error(
                400,
                "malformed_request",
                "unparsable request line",
            ))
        }
    };

    let mut content_length = 0usize;
    for header_count in 0.. {
        if header_count >= MAX_HEADER_LINES {
            return Err(Response::error(
                400,
                "malformed_request",
                format!("more than {MAX_HEADER_LINES} header lines"),
            ));
        }
        let line = read_line_capped(reader)?;
        if line.is_empty() {
            // EOF before the blank separator line.
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "malformed_request", "bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(
            413,
            "payload_too_large",
            format!("body exceeds {MAX_BODY_BYTES} bytes"),
        ));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Err(Response::error(
            400,
            "malformed_request",
            "body shorter than Content-Length",
        ));
    }
    let body = String::from_utf8(body)
        .map_err(|_| Response::error(400, "malformed_request", "body is not UTF-8"))?;
    Ok((method, path, body))
}

fn route(service: &Service, method: &str, path: &str, body: &str) -> Response {
    match (method, path) {
        ("POST", "/query") => handle_query(service, body),
        ("POST", "/v2/write") => handle_write(service, body),
        ("GET", "/metrics.prom") => Response::text(200, service.metrics().to_prometheus()),
        // Liveness ("is the process up?") and readiness ("may traffic be
        // routed here?") are deliberately separate: a booting coordinator is
        // alive long before its snapshot is loaded and its shard fleet has
        // answered the handshake. `/healthz` stays as a liveness alias for
        // probes configured against the pre-split route.
        ("GET", "/livez") => {
            let mut map = serde_json::Map::new();
            map.insert("status".to_string(), Value::String("alive".to_string()));
            Response::new(200, Value::Object(map))
        }
        ("GET", "/healthz") => {
            let mut map = serde_json::Map::new();
            map.insert("status".to_string(), Value::String("ok".to_string()));
            Response::new(200, Value::Object(map))
        }
        ("GET", "/readyz") => {
            let (status, text) = if service.is_ready() {
                (200, "ready")
            } else {
                (503, "starting")
            };
            let mut map = serde_json::Map::new();
            map.insert("status".to_string(), Value::String(text.to_string()));
            Response::new(status, Value::Object(map))
        }
        ("POST", _) | ("GET", _) => {
            Response::error(404, "not_found", format!("no route for {method} {path}"))
        }
        _ => Response::error(405, "method_not_allowed", format!("method {method}")),
    }
}

fn handle_query(service: &Service, body: &str) -> Response {
    let parsed: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "malformed_json", e.to_string()),
    };
    let engine = &service.config().engine;
    let defaults = (engine.error_bound, engine.confidence);
    let request = match QueryRequest::from_json(&parsed, defaults) {
        Ok(r) => r,
        Err(e) => return Response::error(400, "invalid_query", e.to_string()),
    };
    let pending = match service.submit(request) {
        Ok(p) => p,
        Err(e) => return service_error_response(&e),
    };
    match pending.wait_timeout(REPLY_TIMEOUT) {
        Some(Ok(answer)) => Response::new(200, answer.to_json()),
        Some(Err(e)) => service_error_response(&e),
        None => Response::error(
            504,
            "timeout",
            "the worker pool did not answer in time; the request may still complete",
        ),
    }
}

fn handle_write(service: &Service, body: &str) -> Response {
    let parsed: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "malformed_json", e.to_string()),
    };
    let write = match WriteRequest::from_json(&parsed) {
        Ok(w) => w,
        Err(e) => return Response::error(400, "invalid_write", e.to_string()),
    };
    match service.apply_write(write) {
        Ok(outcome) => Response::new(200, outcome.to_json()),
        Err(e) => service_error_response(&e),
    }
}

fn service_error_response(error: &ServiceError) -> Response {
    Response::new(error.http_status(), error.to_json())
}

fn write_response(mut stream: TcpStream, response: &Response) {
    let (content_type, body) = match &response.body {
        Body::Json(value) => (
            "application/json",
            serde_json::to_string(value).expect("shim serialiser is total"),
        ),
        // The Prometheus text exposition format, version 0.0.4.
        Body::Text(text) => ("text/plain; version=0.0.4", text.clone()),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_text(response.status),
        content_type,
        body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}
