//! The kept connection of [`TcpTransport`] and the fleet's inline attempt,
//! against a test peer that counts its `accept`s.
//!
//! What is pinned: calls to one endpoint share a connection; a connection
//! goes back to the pool only after a whole, well-framed response — never
//! after a timeout — so a late response cannot answer the next request; a
//! peer that hung up while a connection idled is reached again inside the
//! same call without the fleet counting anything; the deadline holds across
//! the several reads of one frame; and an attempt that cannot hedge runs on
//! the caller's thread.

use kg_aqp::{
    config_fingerprint, graph_fingerprint, AqpEngine, EngineConfig, FleetPolicy, ShardFleet,
    ShardServerCore, ShardTransport, TcpTransport, TransportError,
};
use kg_core::{read_frame, write_frame, Codec, DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_embed::PredicateSimilarity;
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// A frame-speaking listener that counts accepted connections. `handler`
/// sees every request frame with the connection it arrived on, writes
/// whatever it likes, and says whether the connection stays open. Dropping
/// the peer closes the listener *and* every connection it accepted, which
/// is what a stopped shard process looks like from outside.
struct Peer {
    addr: SocketAddr,
    accepts: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    open: Arc<Mutex<Vec<TcpStream>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl Peer {
    fn bind(
        addr: &str,
        handler: impl Fn(&mut TcpStream, Codec, &[u8]) -> bool + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let accepts = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let open = Arc::new(Mutex::new(Vec::new()));
        let handler = Arc::new(handler);
        let acceptor = thread::spawn({
            let (accepts, stop, open) =
                (Arc::clone(&accepts), Arc::clone(&stop), Arc::clone(&open));
            move || {
                let mut connections = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut stream = stream.expect("accept");
                    accepts.fetch_add(1, Ordering::SeqCst);
                    open.lock()
                        .unwrap()
                        .push(stream.try_clone().expect("clone"));
                    let handler = Arc::clone(&handler);
                    connections.push(thread::spawn(move || {
                        while let Ok((codec, payload)) = read_frame(&mut stream) {
                            if !handler(&mut stream, codec, &payload) {
                                break;
                            }
                        }
                        // `open` holds a clone, so dropping is not closing.
                        let _ = stream.shutdown(Shutdown::Both);
                    }));
                }
                drop(listener);
                for connection in connections {
                    connection.join().expect("connection thread");
                }
            }
        });
        Ok(Self {
            addr,
            accepts,
            stop,
            open,
            acceptor: Some(acceptor),
        })
    }

    /// A peer whose responses are `respond(request payload)`, on kept
    /// connections.
    fn answering(respond: impl Fn(Codec, &[u8]) -> Vec<u8> + Send + Sync + 'static) -> Self {
        Self::bind("127.0.0.1:0", move |stream, codec, payload| {
            write_frame(stream, codec, &respond(codec, payload)).is_ok()
        })
        .expect("loopback bind")
    }

    fn endpoint(&self) -> String {
        self.addr.to_string()
    }

    fn accepts(&self) -> usize {
        self.accepts.load(Ordering::SeqCst)
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for stream in self.open.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake the accept loop so it sees `stop`.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("accept thread");
        }
    }
}

fn call(endpoint: &str, payload: &[u8], timeout_ms: u64) -> Result<Vec<u8>, TransportError> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let (codec, bytes) = TcpTransport.call(endpoint, Codec::Binary, payload, deadline)?;
    assert_eq!(codec, Codec::Binary);
    Ok(bytes)
}

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "shard-equivalence",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China", "Korea"])],
        29,
    ))
}

struct Rig {
    d: kg_datagen::GeneratedDataset,
    sharded: Arc<ShardedGraph>,
    engine: AqpEngine,
    core: Arc<ShardServerCore>,
}

fn rig(k: usize) -> Rig {
    let d = dataset();
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::new(
        Arc::new(d.graph.clone()),
        &DegreeBalancedPartitioner,
        k,
    ));
    let config = EngineConfig {
        error_bound: 0.05,
        enumerate: false,
        ..EngineConfig::default()
    };
    let core = Arc::new(ShardServerCore::new(
        config.clone(),
        Arc::clone(&sharded),
        similarity,
    ));
    Rig {
        d,
        sharded,
        engine: AqpEngine::new(config),
        core,
    }
}

/// (a) Sequential calls to one endpoint travel over one accepted
/// connection, and each returns what serving its request directly returns.
#[test]
fn sequential_calls_share_one_connection() {
    let rig = rig(2);
    let core = Arc::clone(&rig.core);
    let peer = Peer::answering(move |codec, payload| core.serve(codec, payload));
    for i in 0..20u64 {
        // Alternate a matching handshake with a mismatching one, so that
        // consecutive responses differ.
        let request = kg_aqp::remote::ShardRequest::Ping {
            graph_fp: graph_fingerprint(&rig.sharded) ^ (i % 2),
            config_fp: config_fingerprint(rig.engine.config()),
        }
        .encode(Codec::Binary);
        let response = call(&peer.endpoint(), &request, 5_000).expect("healthy peer");
        assert_eq!(
            response,
            rig.core.serve(Codec::Binary, &request),
            "call {i}"
        );
    }
    assert_eq!(peer.accepts(), 1, "every call after the first reuses");
}

/// (b) A peer that closes after every response — a relay that serves one
/// request per connection — still answers every call, each on a fresh
/// connection made inside the call: the fleet sees no retry, hedge, timeout
/// or garbage frame, and the answer is the in-process one bit for bit.
#[test]
fn a_peer_that_hangs_up_after_every_response_costs_no_fleet_counter() {
    let rig = rig(2);
    let core = Arc::clone(&rig.core);
    let peer = Peer::bind("127.0.0.1:0", move |stream, codec, payload| {
        let _ = write_frame(stream, codec, &core.serve(codec, payload));
        false
    })
    .expect("loopback bind");
    let fleet = Arc::new(ShardFleet::new(
        Arc::new(TcpTransport),
        vec![vec![peer.endpoint()]; 2],
        FleetPolicy::default(),
    ));
    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );
    let reference = rig
        .engine
        .execute(&*rig.sharded, &query, &rig.d.oracle)
        .unwrap();
    let mut session = AqpEngine::remote(rig.engine.config().clone(), Arc::clone(&fleet))
        .open_session(&*rig.sharded, &query, &rig.d.oracle)
        .unwrap();
    let answer = session.refine_to(&rig.sharded, &rig.d.oracle, 0.05);
    assert!(!answer.is_degraded());
    assert_eq!(answer.estimate.to_bits(), reference.estimate.to_bits());
    assert_eq!(answer.moe.to_bits(), reference.moe.to_bits());
    assert_eq!(answer.sample_size, reference.sample_size);

    let metrics = fleet.metrics().snapshot();
    assert!(metrics.requests > 2, "{metrics:?}");
    assert_eq!(
        (
            metrics.retries,
            metrics.hedges,
            metrics.timeouts,
            metrics.garbage
        ),
        (0, 0, 0, 0),
        "{metrics:?}"
    );
    // No connection survived a response, so every call opened its own.
    assert_eq!(peer.accepts() as u64, metrics.requests);
}

/// (c) The listener goes away — taking its connections with it — and comes
/// back on the same port: the next call finds its kept connection dead and
/// succeeds on a fresh one.
#[test]
fn a_rebound_listener_is_reached_on_a_fresh_connection() {
    let echo = |stream: &mut TcpStream, codec: Codec, payload: &[u8]| {
        write_frame(stream, codec, payload).is_ok()
    };
    let first = Peer::bind("127.0.0.1:0", echo).expect("loopback bind");
    let endpoint = first.endpoint();
    assert_eq!(call(&endpoint, b"before", 5_000).unwrap(), b"before");
    assert_eq!(call(&endpoint, b"again", 5_000).unwrap(), b"again");
    assert_eq!(first.accepts(), 1);
    drop(first);

    let second = (0..50)
        .find_map(|_| {
            Peer::bind(&endpoint, echo).ok().or_else(|| {
                thread::sleep(Duration::from_millis(20));
                None
            })
        })
        .expect("the port can be bound again");
    assert_eq!(call(&endpoint, b"after", 5_000).unwrap(), b"after");
    assert_eq!(second.accepts(), 1);
}

/// (d) No cross-talk: a response that arrives after its call's deadline is
/// never read by a later call. The timed-out connection is dropped, so the
/// next request opens its own and gets its own response.
#[test]
fn a_late_response_never_answers_the_next_request() {
    let peer = Peer::answering(|_, payload| {
        if payload == b"slow" {
            thread::sleep(Duration::from_millis(600));
        }
        payload.to_vec()
    });
    let endpoint = peer.endpoint();
    assert_eq!(call(&endpoint, b"warm", 5_000).unwrap(), b"warm");
    assert_eq!(peer.accepts(), 1);
    // On the kept connection: the response is written 600 ms from now.
    assert!(matches!(
        call(&endpoint, b"slow", 100),
        Err(TransportError::TimedOut)
    ));
    assert_eq!(peer.accepts(), 1, "the slow call reused the connection");
    assert_eq!(call(&endpoint, b"fast", 5_000).unwrap(), b"fast");
    assert_eq!(peer.accepts(), 2, "a timed-out connection is not pooled");
}

/// (e) Two calls in flight to one endpoint at once each get their own
/// response, over two connections that are then both kept.
#[test]
fn concurrent_calls_get_their_own_responses() {
    // Neither response is written before both requests have arrived.
    let both_arrived = Arc::new(Barrier::new(2));
    let peer = Peer::answering(move |_, payload| {
        both_arrived.wait();
        payload.to_vec()
    });
    let endpoint = peer.endpoint();
    for round in 0..2 {
        thread::scope(|scope| {
            let left = scope.spawn(|| call(&endpoint, b"left", 10_000));
            let right = scope.spawn(|| call(&endpoint, b"right", 10_000));
            assert_eq!(left.join().unwrap().unwrap(), b"left", "round {round}");
            assert_eq!(right.join().unwrap().unwrap(), b"right", "round {round}");
        });
        assert_eq!(peer.accepts(), 2, "round {round}");
    }
}

/// The deadline holds across the reads of one frame: a peer that sends a
/// valid header and then drips the payload a byte at a time — each byte
/// well inside a per-read timeout — is cut off at the call's deadline, and
/// its connection is not kept.
#[test]
fn a_dripped_response_is_cut_off_at_the_deadline() {
    let peer = Peer::bind("127.0.0.1:0", |stream, codec, payload| {
        if payload != b"drip" {
            return write_frame(stream, codec, payload).is_ok();
        }
        let mut frame = Vec::new();
        write_frame(&mut frame, codec, &[7u8; 100]).unwrap();
        // The header and one byte, then 99 more bytes over ten seconds.
        if stream.write_all(&frame[..10]).is_err() {
            return false;
        }
        for byte in &frame[10..] {
            thread::sleep(Duration::from_millis(100));
            if stream.write_all(std::slice::from_ref(byte)).is_err() {
                return false;
            }
        }
        true
    })
    .expect("loopback bind");
    let endpoint = peer.endpoint();
    let start = Instant::now();
    assert!(matches!(
        call(&endpoint, b"drip", 300),
        Err(TransportError::TimedOut)
    ));
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(3),
        "a 300 ms deadline held the call for {took:?} of a 10 s drip"
    );
    assert_eq!(call(&endpoint, b"next", 5_000).unwrap(), b"next");
    assert_eq!(peer.accepts(), 2, "a timed-out connection is not pooled");
}

/// Records the thread each transport call ran on, and answers a handshake.
struct RecordingTransport {
    core: Arc<ShardServerCore>,
    threads: Mutex<Vec<ThreadId>>,
}

impl ShardTransport for RecordingTransport {
    fn call(
        &self,
        _endpoint: &str,
        codec: Codec,
        payload: &[u8],
        _deadline: Instant,
    ) -> Result<(Codec, Vec<u8>), TransportError> {
        self.threads.lock().unwrap().push(thread::current().id());
        Ok((codec, self.core.serve(codec, payload)))
    }
}

/// (f) An attempt that cannot hedge — one replica, or hedging off — calls
/// the transport on the caller's thread; with a replica to hedge against it
/// still runs on a thread of its own, to be raced.
#[test]
fn an_attempt_that_cannot_hedge_runs_on_the_calling_thread() {
    let rig = rig(1);
    let hedging = FleetPolicy::default();
    assert!(hedging.hedge_after_ms > 0);
    let no_hedging = FleetPolicy {
        hedge_after_ms: 0,
        ..FleetPolicy::default()
    };
    let two = || vec![vec!["a".to_string(), "b".to_string()]];
    for (replicas, policy, inline) in [
        (vec![vec!["a".to_string()]], hedging.clone(), true),
        (two(), no_hedging, true),
        (two(), hedging, false),
    ] {
        let transport = Arc::new(RecordingTransport {
            core: Arc::clone(&rig.core),
            threads: Mutex::new(Vec::new()),
        });
        let fleet = ShardFleet::new(
            Arc::clone(&transport) as Arc<dyn ShardTransport>,
            replicas.clone(),
            policy,
        );
        fleet
            .ping_all(
                graph_fingerprint(&rig.sharded),
                config_fingerprint(rig.engine.config()),
            )
            .unwrap();
        let threads = transport.threads.lock().unwrap();
        assert_eq!(threads.len(), 1, "{replicas:?}");
        assert_eq!(
            threads[0] == thread::current().id(),
            inline,
            "{replicas:?}: inline = {inline}"
        );
    }
}
