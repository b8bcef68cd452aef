//! # mcs-server
//!
//! The network serving layer: a dependency-free TCP server speaking the
//! MCSQ wire protocol (`mcs_engine::wire`), with one engine [`Session`]
//! per client connection.
//!
//! ## Architecture
//!
//! * One **accept thread** runs a non-blocking accept loop and spawns a
//!   scoped handler thread per connection; scoping means shutdown joins
//!   every handler before the accept thread exits — a stopped server
//!   provably leaves no stray threads or sockets.
//! * Each **connection** owns a [`Session`] (plan cache + arena pool),
//!   so `Prepare` warms exactly the state later `Execute`s on the same
//!   connection reuse, mirroring the in-process API.
//! * Every `Execute`/`Batch` passes through one shared [`AdmissionGate`]
//!   before touching the engine. A full gate sheds with the same typed
//!   `Overloaded { waited_ns }` a local caller would see — backpressure
//!   crosses the wire as [`ErrorCode::Overloaded`], never as a hang or a
//!   dropped connection.
//! * Malformed frames (bad magic, unknown kind, oversized, undecodable
//!   payload) earn a best-effort typed error frame and close *that*
//!   connection only; the accept loop and sibling connections are
//!   unaffected, and nothing panics.
//!
//! ```no_run
//! use std::sync::Arc;
//! use mcs_engine::{Column, Database, Table};
//! use mcs_server::{Server, ServerConfig};
//!
//! let mut t = Table::new("sales");
//! t.add_column(Column::from_u64s("nation", 2, [1u64, 0, 1, 0]));
//! let mut db = Database::new();
//! db.register(t);
//!
//! let server = Server::spawn(Arc::new(db), ServerConfig::default())?;
//! println!("serving on {}", server.addr());
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Serving code must degrade to typed wire errors, never panic on a
// recoverable path. Test modules opt back in with `#[allow]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mcs_engine::wire::{ErrorCode, Frame, FrameError, RemoteError, Request, Response, MAX_ITEMS};
use mcs_engine::{
    AdmissionGate, Database, EngineConfig, EngineError, PreparedQuery, QueryOptions, Session,
};
use mcs_telemetry as telemetry;

/// How a connection handler polls the stop flag while blocked on a read.
const READ_POLL: Duration = Duration::from_millis(25);
/// How the accept loop polls the stop flag between accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine configuration cloned into every connection's [`Session`].
    pub engine: EngineConfig,
    /// Server-wide admission permits: at most this many `Execute`/`Batch`
    /// requests run concurrently across *all* connections.
    pub permits: usize,
    /// Queue budget applied when a request carries no
    /// [`QueryOptions::queue_timeout`] of its own. `None` waits
    /// indefinitely (in-process `run_concurrent` semantics).
    pub default_queue_timeout: Option<Duration>,
    /// Upper bound on a `Batch` request's intra-batch concurrency.
    pub batch_threads_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            engine: EngineConfig::default(),
            permits: std::thread::available_parallelism().map_or(4, |n| n.get()),
            default_queue_timeout: None,
            batch_threads_cap: 8,
        }
    }
}

/// A running server. Dropping (or calling [`shutdown`](Server::shutdown))
/// stops the accept loop and joins every connection handler.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind an OS-assigned loopback port and start serving `db`.
    pub fn spawn(db: Arc<Database>, config: ServerConfig) -> io::Result<Server> {
        Server::bind("127.0.0.1:0", db, config)
    }

    /// Bind `addr` and start serving `db`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: Arc<Database>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("mcs-server-accept".into())
            .spawn(move || accept_loop(&listener, &db, &config, &flag))?;
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port after
    /// [`spawn`](Server::spawn)).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain every connection handler, and join the
    /// accept thread. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // A panicking handler already failed its connection; the
            // server object outlives it either way.
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, db: &Database, config: &ServerConfig, stop: &AtomicBool) {
    let gate = AdmissionGate::new(config.permits.max(1));
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if telemetry::is_enabled() {
                        telemetry::counter_add("server.accept", 1);
                    }
                    let gate = &gate;
                    scope.spawn(move || serve_connection(stream, db, config, gate, stop));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                // Transient accept failures (per-connection resets) must
                // not kill the listener.
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        // Scope exit joins every connection handler (each observes the
        // stop flag within one READ_POLL) before the accept thread ends.
    });
}

/// A [`Read`] over a timeout-armed [`TcpStream`] that turns read
/// timeouts into stop-flag polls, so `Frame::read_from`'s `read_exact`
/// blocks indefinitely for a frame yet still observes shutdown within
/// [`READ_POLL`]. Partial frames are preserved across polls because
/// `read_exact` itself tracks the fill — a timeout never discards bytes
/// already read.
struct StopAwareStream<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for StopAwareStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            // `Read` is implemented on `&TcpStream`; shadow a mutable
            // borrow of the shared handle.
            let mut stream = self.stream;
            match stream.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    db: &Database,
    config: &ServerConfig,
    gate: &AdmissionGate,
    stop: &AtomicBool,
) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // Bound writes too: a client that never drains its socket must not
    // wedge the handler past shutdown forever.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    // One worker pool per connection governs both the batch fan-out
    // (`run_concurrent`) and each query's intra-query morsel workers, so
    // a batch running at `batch_threads_cap` queries cannot additionally
    // multiply by `exec.threads` workers each.
    let worker_cap = config
        .batch_threads_cap
        .max(config.engine.exec.threads)
        .max(1);
    let session = Session::new(db, config.engine.clone()).with_worker_cap(worker_cap);
    let mut reader = StopAwareStream {
        stream: &stream,
        stop,
    };

    loop {
        let frame = match Frame::read_from(&mut reader) {
            Ok(f) => f,
            Err(FrameError::Io(_)) => return, // EOF, reset, or shutdown
            Err(e) => {
                // Protocol violation: answer with a typed error (best
                // effort — the peer may be gone) and drop the connection.
                if telemetry::is_enabled() {
                    telemetry::counter_add("server.malformed", 1);
                }
                let (code, request_id) = match &e {
                    FrameError::UnsupportedVersion { .. } => (ErrorCode::UnsupportedVersion, 0),
                    FrameError::Oversized { request_id, .. } => {
                        (ErrorCode::OversizedFrame, *request_id)
                    }
                    FrameError::BadKind { request_id, .. } => {
                        (ErrorCode::MalformedFrame, *request_id)
                    }
                    _ => (ErrorCode::MalformedFrame, 0),
                };
                let resp = Response::Error(RemoteError::protocol(code, e.to_string()));
                let _ = resp.to_frame(request_id).write_to(&mut &stream);
                return;
            }
        };

        let request = match Request::decode(frame.kind, &frame.payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame was structurally sound but its payload was
                // not: same policy — typed error, close this connection.
                if telemetry::is_enabled() {
                    telemetry::counter_add("server.malformed", 1);
                }
                let resp =
                    Response::Error(RemoteError::protocol(ErrorCode::BadRequest, e.to_string()));
                let _ = resp.to_frame(frame.request_id).write_to(&mut &stream);
                return;
            }
        };

        if telemetry::is_enabled() {
            telemetry::counter_add("server.request", 1);
        }
        let closing = matches!(request, Request::Close);
        let response = if stop.load(Ordering::SeqCst) && !closing {
            Response::Error(RemoteError::protocol(
                ErrorCode::ShuttingDown,
                "server shutting down",
            ))
        } else {
            handle_request(&session, gate, config, request)
        };
        if response
            .to_frame(frame.request_id)
            .write_to(&mut &stream)
            .is_err()
        {
            return;
        }
        if closing {
            return;
        }
    }
}

fn handle_request(
    session: &Session<'_>,
    gate: &AdmissionGate,
    config: &ServerConfig,
    request: Request,
) -> Response {
    match request {
        Request::Prepare { table, query } => match session.prepare(&table, &query) {
            Ok(_) => Response::Prepared,
            Err(e) => Response::Error(RemoteError::from(&e)),
        },
        Request::Execute {
            table,
            query,
            options,
        } => {
            let _permit = match admit(gate, config, &options) {
                Ok(p) => p,
                Err(e) => return shed(&e),
            };
            match session.query(&table, &query, options) {
                Ok(r) => Response::Result(Box::new(r)),
                Err(e) => Response::Error(RemoteError::from(&e)),
            }
        }
        Request::Batch {
            items,
            threads,
            options,
        } => {
            if items.len() > MAX_ITEMS {
                return Response::Error(RemoteError::protocol(
                    ErrorCode::BadRequest,
                    format!(
                        "batch of {} items exceeds the maximum {MAX_ITEMS}",
                        items.len()
                    ),
                ));
            }
            // One server permit covers the whole batch; intra-batch
            // concurrency is the engine gate inside run_concurrent.
            let _permit = match admit(gate, config, &options) {
                Ok(p) => p,
                Err(e) => return shed(&e),
            };
            let threads = (threads as usize).clamp(1, config.batch_threads_cap.max(1));

            // Per-item prepare failures (unknown table/column) become
            // per-item errors; the well-formed remainder still runs.
            let mut prepared: Vec<PreparedQuery> = Vec::new();
            let mut slots: Vec<Result<usize, EngineError>> = Vec::with_capacity(items.len());
            for (table, query) in &items {
                match session.prepare(table, query) {
                    Ok(p) => {
                        slots.push(Ok(prepared.len()));
                        prepared.push(p);
                    }
                    Err(e) => slots.push(Err(e)),
                }
            }
            let mut ran: Vec<Option<Result<_, _>>> = session
                .run_concurrent(&prepared, threads, options)
                .into_iter()
                .map(Some)
                .collect();
            let results = slots
                .into_iter()
                .map(|slot| match slot {
                    Ok(i) => match ran[i].take() {
                        Some(Ok(r)) => Ok(r),
                        Some(Err(e)) => Err(RemoteError::from(&e)),
                        None => Err(RemoteError::protocol(
                            ErrorCode::BadRequest,
                            "batch slot resolved twice",
                        )),
                    },
                    Err(e) => Err(RemoteError::from(&e)),
                })
                .collect();
            Response::Batch(results)
        }
        Request::Close => Response::Goodbye,
    }
}

/// Admit one request through the server gate, honouring the request's
/// own queue budget first and the server default second.
fn admit<'g>(
    gate: &'g AdmissionGate,
    config: &ServerConfig,
    options: &QueryOptions,
) -> Result<mcs_engine::GatePermit<'g>, EngineError> {
    match options.queue_timeout.or(config.default_queue_timeout) {
        Some(t) => gate.acquire_timeout(t),
        None => Ok(gate.acquire()),
    }
}

fn shed(e: &EngineError) -> Response {
    if telemetry::is_enabled() {
        telemetry::counter_add("server.shed", 1);
    }
    Response::Error(RemoteError::from(e))
}
