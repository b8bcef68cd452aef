//! # mcs-client
//!
//! A blocking client for the MCSQ wire protocol served by `mcs-server`.
//! One [`Client`] wraps one TCP connection — and therefore one engine
//! session (plan cache + arenas) on the server side.
//!
//! The API mirrors the in-process `Session`: [`prepare`](Client::prepare)
//! warms the server-side plan cache, [`query`](Client::query) executes
//! one query under per-request [`QueryOptions`], and
//! [`batch`](Client::batch) runs several concurrently. Engine errors
//! come back typed: a saturated server yields
//! `EngineError::Overloaded { waited_ns }` through
//! [`ClientError::engine_error`] exactly as an in-process caller would
//! see it.
//!
//! ```no_run
//! use mcs_client::Client;
//! use mcs_engine::{Query, QueryOptions};
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let mut q = Query::named("q1");
//! q.select = vec!["price".into()];
//! q.order_by = vec![mcs_engine::OrderKey::asc("price")];
//! let result = client.query("sales", &q, QueryOptions::default())?;
//! println!("{} rows", result.rows);
//! client.close()?;
//! # Ok::<(), mcs_client::ClientError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use mcs_engine::wire::{Frame, FrameError, RemoteError, Request, Response, WireError};
use mcs_engine::{EngineError, Query, QueryOptions, QueryResult};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (connect, send, or receive).
    Io(io::Error),
    /// The server's bytes did not parse as a frame.
    Frame(FrameError),
    /// A frame arrived but its payload did not decode.
    Wire(WireError),
    /// The server answered with a typed error.
    Remote(RemoteError),
    /// The server broke the protocol (wrong id, wrong message kind).
    Protocol(String),
}

impl ClientError {
    /// The in-process [`EngineError`] this failure corresponds to, for
    /// the variants that survive the wire losslessly (`Overloaded`,
    /// `DeadlineExceeded`, `Cancelled`, `WindowKeyTooWide`). Lets remote
    /// callers match on engine errors exactly like local ones.
    pub fn engine_error(&self) -> Option<EngineError> {
        match self {
            ClientError::Remote(e) => e.engine_error(),
            _ => None,
        }
    }

    /// The typed remote error, if the server sent one.
    pub fn remote(&self) -> Option<&RemoteError> {
        match self {
            ClientError::Remote(e) => Some(e),
            _ => None,
        }
    }
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Wire(e) => write!(f, "bad payload from server: {e}"),
            ClientError::Remote(e) => write!(f, "{e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::Remote(e) => Some(e),
            ClientError::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// One connection to an `mcs-server`, with monotonically increasing
/// request ids.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream, next_id: 1 })
    }

    /// Connect to `addr`, failing after `timeout`.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream, next_id: 1 })
    }

    /// Bound every receive: a server that stops answering fails the call
    /// with [`ClientError::Io`] instead of blocking forever.
    pub fn set_receive_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        Ok(self.stream.set_read_timeout(timeout)?)
    }

    /// Plan `query` against `table` on the server, warming this
    /// connection's plan cache.
    pub fn prepare(&mut self, table: &str, query: &Query) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Prepare {
            table: table.into(),
            query: query.clone(),
        })? {
            Response::Prepared => Ok(()),
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// Execute one query under `options`. The deadline travels as the
    /// remaining time budget; queue pressure surfaces as a typed
    /// `Overloaded` error (see [`ClientError::engine_error`]).
    pub fn query(
        &mut self,
        table: &str,
        query: &Query,
        options: QueryOptions,
    ) -> Result<QueryResult, ClientError> {
        match self.roundtrip(&Request::Execute {
            table: table.into(),
            query: query.clone(),
            options,
        })? {
            Response::Result(r) => Ok(*r),
            other => Err(unexpected("Result", &other)),
        }
    }

    /// Execute `items` concurrently (at most `threads` in flight on the
    /// server), returning per-item outcomes in input order.
    pub fn batch(
        &mut self,
        items: &[(String, Query)],
        threads: usize,
        options: QueryOptions,
    ) -> Result<Vec<Result<QueryResult, RemoteError>>, ClientError> {
        match self.roundtrip(&Request::Batch {
            items: items.to_vec(),
            threads: u32::try_from(threads).unwrap_or(u32::MAX),
            options,
        })? {
            Response::Batch(results) => Ok(results),
            other => Err(unexpected("BatchResult", &other)),
        }
    }

    /// Close the connection cleanly (waits for the server's goodbye).
    pub fn close(mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Close)? {
            Response::Goodbye => Ok(()),
            other => Err(unexpected("Goodbye", &other)),
        }
    }

    /// Send one request and read its response, checking the echoed id.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        request.to_frame(id).write_to(&mut self.stream)?;
        let frame = Frame::read_from(&mut self.stream)?;
        if frame.request_id != id {
            return Err(ClientError::Protocol(format!(
                "response for request {} while awaiting {id}",
                frame.request_id
            )));
        }
        match Response::decode(frame.kind, &frame.payload)? {
            Response::Error(e) => Err(ClientError::Remote(e)),
            resp => Ok(resp),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {:?}", got.kind()))
}
