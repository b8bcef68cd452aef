//! The network wire format: a dependency-free binary codec for the
//! public query API, plus the length-prefixed frame protocol the
//! `mcs-server` / `mcs-client` crates speak over TCP.
//!
//! ## Layers
//!
//! 1. **Value codec** — [`Wire`] gives [`Query`], [`QueryOptions`],
//!    [`QueryResult`], and [`RemoteError`] a `to_bytes`/`from_bytes`
//!    pair with typed [`WireError`]s. Everything is little-endian,
//!    length-prefixed, and bounded: a hostile length prefix can never
//!    make the decoder allocate more than the payload it arrived in.
//! 2. **Frame layer** — every message travels as one [`Frame`]:
//!
//!    ```text
//!    ┌────────────┬─────────┬────────┬──────────────┬─────────┬─────────────┐
//!    │ magic      │ version │ kind   │ request id   │ len     │ payload     │
//!    │ 4B "MCSQ"  │ 1B      │ 1B     │ 8B LE        │ 4B LE   │ len bytes   │
//!    └────────────┴─────────┴────────┴──────────────┴─────────┴─────────────┘
//!    ```
//!
//!    Request ids are chosen by the client and echoed verbatim in the
//!    response, so clients may pipeline several requests before reading
//!    any response. Payloads above [`MAX_PAYLOAD`] are rejected without
//!    being read.
//! 3. **Message grammar** — [`Request`] (prepare / execute / batch /
//!    close) and [`Response`] (prepared / result / batch / error /
//!    goodbye), each a frame kind plus a value-codec payload.
//!
//! ## Error codes
//!
//! [`ErrorCode`] assigns every [`EngineError`] variant a stable numeric
//! code (1–10) so remote clients see `Overloaded`, `DeadlineExceeded`,
//! and friends exactly as in-process callers do; codes 64+ are
//! protocol-level conditions (malformed frame, unsupported version, …)
//! that have no in-process counterpart.
//!
//! ## What does not cross the wire
//!
//! * [`QueryOptions::deadline`] is an [`Instant`], meaningless on
//!   another machine: it is encoded as the *remaining* time budget at
//!   encode time and re-anchored to the receiver's clock on decode.
//! * [`QueryOptions::cancel`] tokens are process-local; a decoded
//!   options struct always carries the inert default token.
//! * [`QueryResult`] timings are execution-local diagnostics; only the
//!   result columns and row count are encoded, and a decoded result
//!   carries default timings.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use mcs_columnar::Predicate;

use crate::error::EngineError;
use crate::pipeline::QueryResult;
use crate::query::{Agg, AggKind, Filter, OrderKey, Query};
use crate::session::QueryOptions;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"MCSQ";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Frame header length in bytes (magic + version + kind + id + len).
pub const HEADER_LEN: usize = 18;
/// Largest accepted frame payload (64 MiB).
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Largest accepted string (names, messages) in bytes.
pub const MAX_STR: usize = 1 << 20;
/// Largest accepted collection count (filters, columns, batch items).
pub const MAX_ITEMS: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------------

/// Why a byte payload failed to decode. Every variant is a *typed*
/// rejection — the decoder never panics on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value it was announcing.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte outside the known range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length prefix exceeded its sanity bound.
    TooLong {
        /// What was being decoded.
        what: &'static str,
        /// The announced length.
        len: u64,
        /// The maximum accepted.
        max: u64,
    },
    /// The value decoded cleanly but bytes were left over.
    Trailing {
        /// How many undecoded bytes remained.
        len: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "payload truncated while decoding {what}"),
            WireError::BadTag { what, tag } => write!(f, "unknown tag {tag} decoding {what}"),
            WireError::BadUtf8 { what } => write!(f, "invalid UTF-8 decoding {what}"),
            WireError::TooLong { what, len, max } => {
                write!(f, "{what} length {len} exceeds the wire maximum {max}")
            }
            WireError::Trailing { len } => write!(f, "{len} trailing bytes after decoded value"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Primitive reader/writer
// ---------------------------------------------------------------------------

/// Cursor over a received payload. All reads are bounds-checked; a
/// length prefix can never cause an allocation larger than what the
/// payload physically contains.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, WireError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    /// A `count` prefix for elements of at least `min_elem_bytes` each:
    /// rejected if it exceeds [`MAX_ITEMS`] or promises more elements
    /// than the remaining bytes could possibly hold.
    fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n > MAX_ITEMS {
            return Err(WireError::TooLong {
                what,
                len: n as u64,
                max: MAX_ITEMS as u64,
            });
        }
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated { what });
        }
        Ok(n)
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        if len > MAX_STR {
            return Err(WireError::TooLong {
                what,
                len: len as u64,
                max: MAX_STR as u64,
            });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    fn u64s(&mut self, what: &'static str) -> Result<Vec<u64>, WireError> {
        let n = self.u64(what)? as usize;
        if self.remaining() < n.saturating_mul(8) {
            return Err(WireError::Truncated { what });
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64(what)?);
        }
        Ok(v)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    // Encoding enforces the same bound decoding does, truncation-free:
    // callers never hold >1 MiB names, so this is a debug guard only.
    debug_assert!(s.len() <= MAX_STR);
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    put_u64(out, v.len() as u64);
    for x in v {
        put_u64(out, *x);
    }
}

// ---------------------------------------------------------------------------
// The Wire trait + impls for the public API types
// ---------------------------------------------------------------------------

/// Binary encode/decode for one value.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from `r`, leaving it positioned after the value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from exactly `bytes` — trailing bytes are a typed error.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing { len: r.remaining() });
        }
        Ok(v)
    }
}

impl Wire for Predicate {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Predicate::Lt(x) => {
                out.push(0);
                put_u64(out, x);
            }
            Predicate::Le(x) => {
                out.push(1);
                put_u64(out, x);
            }
            Predicate::Gt(x) => {
                out.push(2);
                put_u64(out, x);
            }
            Predicate::Ge(x) => {
                out.push(3);
                put_u64(out, x);
            }
            Predicate::Eq(x) => {
                out.push(4);
                put_u64(out, x);
            }
            Predicate::Ne(x) => {
                out.push(5);
                put_u64(out, x);
            }
            Predicate::Between(lo, hi) => {
                out.push(6);
                put_u64(out, lo);
                put_u64(out, hi);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        const WHAT: &str = "Predicate";
        Ok(match r.u8(WHAT)? {
            0 => Predicate::Lt(r.u64(WHAT)?),
            1 => Predicate::Le(r.u64(WHAT)?),
            2 => Predicate::Gt(r.u64(WHAT)?),
            3 => Predicate::Ge(r.u64(WHAT)?),
            4 => Predicate::Eq(r.u64(WHAT)?),
            5 => Predicate::Ne(r.u64(WHAT)?),
            6 => Predicate::Between(r.u64(WHAT)?, r.u64(WHAT)?),
            tag => return Err(WireError::BadTag { what: WHAT, tag }),
        })
    }
}

impl Wire for Filter {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.column);
        self.predicate.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Filter {
            column: r.string("Filter.column")?,
            predicate: Predicate::decode(r)?,
        })
    }
}

impl Wire for OrderKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.column);
        out.push(u8::from(self.descending));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let column = r.string("OrderKey.column")?;
        let descending = match r.u8("OrderKey.descending")? {
            0 => false,
            1 => true,
            tag => {
                return Err(WireError::BadTag {
                    what: "OrderKey.descending",
                    tag,
                })
            }
        };
        Ok(OrderKey { column, descending })
    }
}

impl Wire for AggKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AggKind::Count => out.push(0),
            AggKind::CountDistinct(c) => {
                out.push(1);
                put_str(out, c);
            }
            AggKind::Sum(c) => {
                out.push(2);
                put_str(out, c);
            }
            AggKind::Avg(c) => {
                out.push(3);
                put_str(out, c);
            }
            AggKind::Min(c) => {
                out.push(4);
                put_str(out, c);
            }
            AggKind::Max(c) => {
                out.push(5);
                put_str(out, c);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        const WHAT: &str = "AggKind";
        Ok(match r.u8(WHAT)? {
            0 => AggKind::Count,
            1 => AggKind::CountDistinct(r.string(WHAT)?),
            2 => AggKind::Sum(r.string(WHAT)?),
            3 => AggKind::Avg(r.string(WHAT)?),
            4 => AggKind::Min(r.string(WHAT)?),
            5 => AggKind::Max(r.string(WHAT)?),
            tag => return Err(WireError::BadTag { what: WHAT, tag }),
        })
    }
}

impl Wire for Agg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        put_str(out, &self.label);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Agg {
            kind: AggKind::decode(r)?,
            label: r.string("Agg.label")?,
        })
    }
}

fn encode_vec<T: Wire>(out: &mut Vec<u8>, items: &[T]) {
    debug_assert!(items.len() <= MAX_ITEMS);
    put_u32(out, items.len() as u32);
    for item in items {
        item.encode(out);
    }
}

fn decode_vec<T: Wire>(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<T>, WireError> {
    let n = r.count(1, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::decode(r)?);
    }
    Ok(v)
}

fn encode_strs(out: &mut Vec<u8>, items: &[String]) {
    debug_assert!(items.len() <= MAX_ITEMS);
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn decode_strs(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<String>, WireError> {
    let n = r.count(4, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.string(what)?);
    }
    Ok(v)
}

impl Wire for Query {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        encode_vec(out, &self.filters);
        encode_strs(out, &self.select);
        encode_strs(out, &self.group_by);
        encode_vec(out, &self.aggregates);
        encode_vec(out, &self.order_by);
        encode_strs(out, &self.partition_by);
        encode_vec(out, &self.window_order);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Query {
            name: r.string("Query.name")?,
            filters: decode_vec(r, "Query.filters")?,
            select: decode_strs(r, "Query.select")?,
            group_by: decode_strs(r, "Query.group_by")?,
            aggregates: decode_vec(r, "Query.aggregates")?,
            order_by: decode_vec(r, "Query.order_by")?,
            partition_by: decode_strs(r, "Query.partition_by")?,
            window_order: decode_vec(r, "Query.window_order")?,
        })
    }
}

impl Wire for QueryOptions {
    /// The deadline crosses the wire as *remaining budget*: an
    /// [`Instant`] is clock-local, so encode captures
    /// `deadline - now` (saturating at zero — an already-expired
    /// deadline arrives as a zero budget and fails fast on the server,
    /// exactly like in-process execution) and decode re-anchors it to
    /// the receiving clock. The cancel token is process-local and never
    /// encoded; decoded options carry the inert default token.
    fn encode(&self, out: &mut Vec<u8>) {
        let timeout_ns = self.deadline.map(|d| {
            u64::try_from(
                d.saturating_duration_since(Instant::now())
                    .as_nanos()
                    .min(u128::from(u64::MAX)),
            )
            .unwrap_or(u64::MAX)
        });
        put_opt_u64(out, timeout_ns);
        put_opt_u64(
            out,
            self.queue_timeout
                .map(|d| u64::try_from(d.as_nanos().min(u128::from(u64::MAX))).unwrap_or(u64::MAX)),
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let deadline = r
            .opt_u64("QueryOptions.timeout_ns")?
            // A budget too large for the Instant arithmetic means
            // "effectively unbounded": drop the deadline rather than
            // panic on a hostile u64::MAX.
            .and_then(|ns| Instant::now().checked_add(Duration::from_nanos(ns)));
        let queue_timeout = r
            .opt_u64("QueryOptions.queue_timeout_ns")?
            .map(Duration::from_nanos);
        Ok(QueryOptions {
            deadline,
            queue_timeout,
            ..QueryOptions::default()
        })
    }
}

impl Wire for QueryResult {
    /// Only the result data (columns + row count) crosses the wire;
    /// [`QueryResult::timings`] are execution-local diagnostics and a
    /// decoded result carries the default (all-zero) timings.
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.columns.len() as u32);
        for (name, values) in &self.columns {
            put_str(out, name);
            put_u64s(out, values);
        }
        put_u64(out, self.rows as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(12, "QueryResult.columns")?;
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.string("QueryResult.column.name")?;
            let values = r.u64s("QueryResult.column.values")?;
            columns.push((name, values));
        }
        let rows = r.u64("QueryResult.rows")? as usize;
        Ok(QueryResult {
            columns,
            rows,
            timings: Default::default(),
        })
    }
}

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// Stable numeric error codes: 1–10 mirror the [`EngineError`] taxonomy
/// one-to-one; 64+ are protocol-level conditions with no in-process
/// counterpart. Codes are wire ABI — they never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// [`EngineError::UnknownColumn`].
    UnknownColumn = 1,
    /// [`EngineError::UnknownTable`].
    UnknownTable = 2,
    /// [`EngineError::NoSortKeys`].
    NoSortKeys = 3,
    /// [`EngineError::PlanSearch`].
    PlanSearch = 4,
    /// [`EngineError::Sort`].
    Sort = 5,
    /// [`EngineError::Sql`].
    Sql = 6,
    /// [`EngineError::WindowKeyTooWide`] (`aux` carries the bit width).
    WindowKeyTooWide = 7,
    /// [`EngineError::DeadlineExceeded`].
    DeadlineExceeded = 8,
    /// [`EngineError::Cancelled`].
    Cancelled = 9,
    /// [`EngineError::Overloaded`] (`aux` carries `waited_ns`).
    Overloaded = 10,
    /// The frame header or payload could not be parsed; the server
    /// closes the connection after sending this.
    MalformedFrame = 64,
    /// The frame announced a protocol version this peer does not speak.
    UnsupportedVersion = 65,
    /// The frame announced a payload larger than [`MAX_PAYLOAD`].
    OversizedFrame = 66,
    /// The frame was well-formed but its payload did not decode as the
    /// announced message kind.
    BadRequest = 67,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown = 68,
}

impl ErrorCode {
    /// The numeric wire code.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Decode a numeric wire code.
    pub fn from_code(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::UnknownColumn,
            2 => ErrorCode::UnknownTable,
            3 => ErrorCode::NoSortKeys,
            4 => ErrorCode::PlanSearch,
            5 => ErrorCode::Sort,
            6 => ErrorCode::Sql,
            7 => ErrorCode::WindowKeyTooWide,
            8 => ErrorCode::DeadlineExceeded,
            9 => ErrorCode::Cancelled,
            10 => ErrorCode::Overloaded,
            64 => ErrorCode::MalformedFrame,
            65 => ErrorCode::UnsupportedVersion,
            66 => ErrorCode::OversizedFrame,
            67 => ErrorCode::BadRequest,
            68 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }

    /// The code an [`EngineError`] maps to (total: every variant has
    /// exactly one code).
    pub fn of(e: &EngineError) -> ErrorCode {
        match e {
            EngineError::UnknownColumn { .. } => ErrorCode::UnknownColumn,
            EngineError::UnknownTable { .. } => ErrorCode::UnknownTable,
            EngineError::NoSortKeys { .. } => ErrorCode::NoSortKeys,
            EngineError::PlanSearch(_) => ErrorCode::PlanSearch,
            EngineError::Sort(_) => ErrorCode::Sort,
            EngineError::Sql(_) => ErrorCode::Sql,
            EngineError::WindowKeyTooWide { .. } => ErrorCode::WindowKeyTooWide,
            EngineError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            EngineError::Cancelled => ErrorCode::Cancelled,
            EngineError::Overloaded { .. } => ErrorCode::Overloaded,
        }
    }

    /// Stable snake_case label (logs, metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownColumn => "unknown_column",
            ErrorCode::UnknownTable => "unknown_table",
            ErrorCode::NoSortKeys => "no_sort_keys",
            ErrorCode::PlanSearch => "plan_search",
            ErrorCode::Sort => "sort",
            ErrorCode::Sql => "sql",
            ErrorCode::WindowKeyTooWide => "window_key_too_wide",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::OversizedFrame => "oversized_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed error as it travels on the wire: a stable [`ErrorCode`], the
/// human-readable message, and one code-specific auxiliary value
/// (`waited_ns` for [`Overloaded`](ErrorCode::Overloaded), the bit
/// width for [`WindowKeyTooWide`](ErrorCode::WindowKeyTooWide), zero
/// otherwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// Stable numeric code.
    pub code: ErrorCode,
    /// Human-readable detail (the in-process `Display` rendering).
    pub message: String,
    /// Code-specific auxiliary value.
    pub aux: u64,
}

impl RemoteError {
    /// A protocol-level error (codes 64+).
    pub fn protocol(code: ErrorCode, message: impl Into<String>) -> RemoteError {
        RemoteError {
            code,
            message: message.into(),
            aux: 0,
        }
    }

    /// Reconstruct the in-process [`EngineError`] for the variants whose
    /// payload survives the wire losslessly. Structured inner errors
    /// (plan search, sort, SQL) and protocol codes return `None`; their
    /// detail is in [`message`](RemoteError::message).
    pub fn engine_error(&self) -> Option<EngineError> {
        Some(match self.code {
            ErrorCode::DeadlineExceeded => EngineError::DeadlineExceeded,
            ErrorCode::Cancelled => EngineError::Cancelled,
            ErrorCode::Overloaded => EngineError::Overloaded {
                waited_ns: self.aux,
            },
            ErrorCode::WindowKeyTooWide => EngineError::WindowKeyTooWide {
                bits: u32::try_from(self.aux).unwrap_or(u32::MAX),
            },
            _ => return None,
        })
    }
}

impl From<&EngineError> for RemoteError {
    fn from(e: &EngineError) -> RemoteError {
        let aux = match e {
            EngineError::Overloaded { waited_ns } => *waited_ns,
            EngineError::WindowKeyTooWide { bits } => u64::from(*bits),
            _ => 0,
        };
        RemoteError {
            code: ErrorCode::of(e),
            message: e.to_string(),
            aux,
        }
    }
}

impl core::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "remote error {} ({}): {}",
            self.code.code(),
            self.code,
            self.message
        )
    }
}

impl std::error::Error for RemoteError {}

impl Wire for ErrorCode {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, self.code());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let code = r.u16("ErrorCode")?;
        ErrorCode::from_code(code).ok_or(WireError::BadTag {
            what: "ErrorCode",
            tag: code.min(255) as u8,
        })
    }
}

impl Wire for RemoteError {
    fn encode(&self, out: &mut Vec<u8>) {
        self.code.encode(out);
        put_str(out, &self.message);
        put_u64(out, self.aux);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RemoteError {
            code: ErrorCode::decode(r)?,
            message: r.string("RemoteError.message")?,
            aux: r.u64("RemoteError.aux")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// The message kind carried in a frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Request: plan `query` against `table` and cache the plan.
    Prepare = 0x01,
    /// Request: execute one query under per-request options.
    Execute = 0x02,
    /// Request: execute a batch concurrently.
    Batch = 0x03,
    /// Request: close the connection cleanly.
    Close = 0x04,
    /// Response to [`Prepare`](MsgKind::Prepare).
    Prepared = 0x81,
    /// Response carrying a [`QueryResult`].
    Result = 0x82,
    /// Response carrying per-item batch results.
    BatchResult = 0x83,
    /// Response carrying a [`RemoteError`].
    Error = 0x84,
    /// Response to [`Close`](MsgKind::Close) (also sent on shutdown).
    Goodbye = 0x85,
}

impl MsgKind {
    /// Decode a kind byte.
    pub fn from_u8(b: u8) -> Option<MsgKind> {
        Some(match b {
            0x01 => MsgKind::Prepare,
            0x02 => MsgKind::Execute,
            0x03 => MsgKind::Batch,
            0x04 => MsgKind::Close,
            0x81 => MsgKind::Prepared,
            0x82 => MsgKind::Result,
            0x83 => MsgKind::BatchResult,
            0x84 => MsgKind::Error,
            0x85 => MsgKind::Goodbye,
            _ => return None,
        })
    }
}

/// Why a frame could not be read off the stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// What arrived instead.
        got: [u8; 4],
    },
    /// The version byte is not one this build speaks.
    UnsupportedVersion {
        /// The announced version.
        got: u8,
    },
    /// The kind byte is not a known [`MsgKind`].
    BadKind {
        /// The offending byte.
        kind: u8,
        /// The request id parsed from the header (echoable).
        request_id: u64,
    },
    /// The announced payload exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The announced length.
        len: u32,
        /// The request id parsed from the header (echoable).
        request_id: u64,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:?}"),
            FrameError::UnsupportedVersion { got } => {
                write!(f, "unsupported protocol version {got} (expected {VERSION})")
            }
            FrameError::BadKind { kind, .. } => write!(f, "unknown frame kind {kind:#04x}"),
            FrameError::Oversized { len, .. } => {
                write!(f, "frame payload {len} bytes exceeds maximum {MAX_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// One length-prefixed protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: MsgKind,
    /// Client-chosen id, echoed verbatim in the response (pipelining).
    pub request_id: u64,
    /// The message payload ([`Wire`]-encoded).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serialize header + payload into one buffer (a single `write_all`
    /// keeps frames intact under concurrent writers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind as u8);
        put_u64(&mut out, self.request_id);
        put_u32(&mut out, self.payload.len() as u32);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Write this frame to `w` and flush.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.to_bytes())?;
        w.flush()
    }

    /// Read one frame off `r`, validating the header before any payload
    /// allocation. Oversized frames are rejected *without* reading their
    /// payload.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, FrameError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let got = [header[0], header[1], header[2], header[3]];
        if got != MAGIC {
            return Err(FrameError::BadMagic { got });
        }
        if header[4] != VERSION {
            return Err(FrameError::UnsupportedVersion { got: header[4] });
        }
        let request_id = u64::from_le_bytes([
            header[6], header[7], header[8], header[9], header[10], header[11], header[12],
            header[13],
        ]);
        let kind = MsgKind::from_u8(header[5]).ok_or(FrameError::BadKind {
            kind: header[5],
            request_id,
        })?;
        let len = u32::from_le_bytes([header[14], header[15], header[16], header[17]]);
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len, request_id });
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        Ok(Frame {
            kind,
            request_id,
            payload,
        })
    }
}

// ---------------------------------------------------------------------------
// Message grammar
// ---------------------------------------------------------------------------

/// A client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Check `query` against `table` now (the table and every column it
    /// names), as [`Session::prepare`](crate::Session::prepare) does.
    Prepare {
        /// Target table name.
        table: String,
        /// The query to check.
        query: Query,
    },
    /// Execute one query under per-request [`QueryOptions`].
    Execute {
        /// Target table name.
        table: String,
        /// The query to run.
        query: Query,
        /// Per-request limits (deadline, queue timeout).
        options: QueryOptions,
    },
    /// Execute `items` concurrently (at most `threads` in flight),
    /// returning per-item results in input order.
    Batch {
        /// `(table, query)` pairs.
        items: Vec<(String, Query)>,
        /// Intra-batch concurrency.
        threads: u32,
        /// Limits applied to every item.
        options: QueryOptions,
    },
    /// Close the connection cleanly; the server answers
    /// [`Response::Goodbye`].
    Close,
}

impl Request {
    /// The frame kind this request travels under.
    pub fn kind(&self) -> MsgKind {
        match self {
            Request::Prepare { .. } => MsgKind::Prepare,
            Request::Execute { .. } => MsgKind::Execute,
            Request::Batch { .. } => MsgKind::Batch,
            Request::Close => MsgKind::Close,
        }
    }

    /// Encode into a frame carrying `request_id`.
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let mut payload = Vec::new();
        match self {
            Request::Prepare { table, query } => {
                put_str(&mut payload, table);
                query.encode(&mut payload);
            }
            Request::Execute {
                table,
                query,
                options,
            } => {
                put_str(&mut payload, table);
                query.encode(&mut payload);
                options.encode(&mut payload);
            }
            Request::Batch {
                items,
                threads,
                options,
            } => {
                debug_assert!(items.len() <= MAX_ITEMS);
                put_u32(&mut payload, items.len() as u32);
                for (table, query) in items {
                    put_str(&mut payload, table);
                    query.encode(&mut payload);
                }
                put_u32(&mut payload, *threads);
                options.encode(&mut payload);
            }
            Request::Close => {}
        }
        Frame {
            kind: self.kind(),
            request_id,
            payload,
        }
    }

    /// Decode a request payload for `kind` (trailing bytes are a typed
    /// error).
    pub fn decode(kind: MsgKind, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match kind {
            MsgKind::Prepare => Request::Prepare {
                table: r.string("Prepare.table")?,
                query: Query::decode(&mut r)?,
            },
            MsgKind::Execute => Request::Execute {
                table: r.string("Execute.table")?,
                query: Query::decode(&mut r)?,
                options: QueryOptions::decode(&mut r)?,
            },
            MsgKind::Batch => {
                let n = r.count(5, "Batch.items")?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let table = r.string("Batch.table")?;
                    let query = Query::decode(&mut r)?;
                    items.push((table, query));
                }
                Request::Batch {
                    items,
                    threads: r.u32("Batch.threads")?,
                    options: QueryOptions::decode(&mut r)?,
                }
            }
            MsgKind::Close => Request::Close,
            other => {
                return Err(WireError::BadTag {
                    what: "Request.kind",
                    tag: other as u8,
                })
            }
        };
        if r.remaining() != 0 {
            return Err(WireError::Trailing { len: r.remaining() });
        }
        Ok(req)
    }
}

/// A server → client message.
#[derive(Debug)]
pub enum Response {
    /// The prepare succeeded; the plan is cached server-side.
    Prepared,
    /// One query's result.
    Result(Box<QueryResult>),
    /// Per-item batch outcomes, in input order.
    Batch(Vec<Result<QueryResult, RemoteError>>),
    /// The request failed with a typed error.
    Error(RemoteError),
    /// The connection is closing cleanly.
    Goodbye,
}

impl Response {
    /// The frame kind this response travels under.
    pub fn kind(&self) -> MsgKind {
        match self {
            Response::Prepared => MsgKind::Prepared,
            Response::Result(_) => MsgKind::Result,
            Response::Batch(_) => MsgKind::BatchResult,
            Response::Error(_) => MsgKind::Error,
            Response::Goodbye => MsgKind::Goodbye,
        }
    }

    /// Encode into a frame echoing `request_id`.
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let mut payload = Vec::new();
        match self {
            Response::Prepared | Response::Goodbye => {}
            Response::Result(r) => r.encode(&mut payload),
            Response::Batch(items) => {
                debug_assert!(items.len() <= MAX_ITEMS);
                put_u32(&mut payload, items.len() as u32);
                for item in items {
                    match item {
                        Ok(r) => {
                            payload.push(1);
                            r.encode(&mut payload);
                        }
                        Err(e) => {
                            payload.push(0);
                            e.encode(&mut payload);
                        }
                    }
                }
            }
            Response::Error(e) => e.encode(&mut payload),
        }
        Frame {
            kind: self.kind(),
            request_id,
            payload,
        }
    }

    /// Decode a response payload for `kind` (trailing bytes are a typed
    /// error).
    pub fn decode(kind: MsgKind, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match kind {
            MsgKind::Prepared => Response::Prepared,
            MsgKind::Result => Response::Result(Box::new(QueryResult::decode(&mut r)?)),
            MsgKind::BatchResult => {
                let n = r.count(1, "BatchResult.items")?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    match r.u8("BatchResult.tag")? {
                        1 => items.push(Ok(QueryResult::decode(&mut r)?)),
                        0 => items.push(Err(RemoteError::decode(&mut r)?)),
                        tag => {
                            return Err(WireError::BadTag {
                                what: "BatchResult.tag",
                                tag,
                            })
                        }
                    }
                }
                Response::Batch(items)
            }
            MsgKind::Error => Response::Error(RemoteError::decode(&mut r)?),
            MsgKind::Goodbye => Response::Goodbye,
            other => {
                return Err(WireError::BadTag {
                    what: "Response.kind",
                    tag: other as u8,
                })
            }
        };
        if r.remaining() != 0 {
            return Err(WireError::Trailing { len: r.remaining() });
        }
        Ok(resp)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_pinned_wire_abi() {
        // These numbers are the wire contract; changing any is a
        // protocol break and must fail review.
        let pinned = [
            (ErrorCode::UnknownColumn, 1),
            (ErrorCode::UnknownTable, 2),
            (ErrorCode::NoSortKeys, 3),
            (ErrorCode::PlanSearch, 4),
            (ErrorCode::Sort, 5),
            (ErrorCode::Sql, 6),
            (ErrorCode::WindowKeyTooWide, 7),
            (ErrorCode::DeadlineExceeded, 8),
            (ErrorCode::Cancelled, 9),
            (ErrorCode::Overloaded, 10),
            (ErrorCode::MalformedFrame, 64),
            (ErrorCode::UnsupportedVersion, 65),
            (ErrorCode::OversizedFrame, 66),
            (ErrorCode::BadRequest, 67),
            (ErrorCode::ShuttingDown, 68),
        ];
        for (code, num) in pinned {
            assert_eq!(code.code(), num, "{code:?}");
            assert_eq!(ErrorCode::from_code(num), Some(code));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(11), None);
        assert_eq!(ErrorCode::from_code(u16::MAX), None);
    }

    #[test]
    fn engine_error_mapping_is_total_and_roundtrips_the_lossless_variants() {
        let e = EngineError::Overloaded { waited_ns: 12345 };
        let w = RemoteError::from(&e);
        assert_eq!(w.code, ErrorCode::Overloaded);
        assert_eq!(w.aux, 12345);
        assert_eq!(w.engine_error(), Some(e));

        let e = EngineError::WindowKeyTooWide { bits: 70 };
        let w = RemoteError::from(&e);
        assert_eq!(w.engine_error(), Some(e));

        assert_eq!(
            RemoteError::from(&EngineError::DeadlineExceeded).engine_error(),
            Some(EngineError::DeadlineExceeded)
        );
        assert_eq!(
            RemoteError::from(&EngineError::Cancelled).engine_error(),
            Some(EngineError::Cancelled)
        );
        // Structured inner errors keep their detail in the message only.
        let e = EngineError::UnknownTable {
            table: "ghost".into(),
        };
        let w = RemoteError::from(&e);
        assert_eq!(w.code, ErrorCode::UnknownTable);
        assert!(w.message.contains("ghost"));
        assert_eq!(w.engine_error(), None);
    }

    #[test]
    fn frame_header_layout_is_pinned() {
        let f = Frame {
            kind: MsgKind::Execute,
            request_id: 0x0102030405060708,
            payload: vec![0xAA, 0xBB],
        };
        let bytes = f.to_bytes();
        assert_eq!(&bytes[0..4], b"MCSQ");
        assert_eq!(bytes[4], VERSION);
        assert_eq!(bytes[5], 0x02);
        assert_eq!(
            &bytes[6..14],
            &0x0102030405060708u64.to_le_bytes(),
            "request id is little-endian at offset 6"
        );
        assert_eq!(&bytes[14..18], &2u32.to_le_bytes());
        assert_eq!(&bytes[18..], &[0xAA, 0xBB]);
        assert_eq!(bytes.len(), HEADER_LEN + 2);

        let back = Frame::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn frame_rejections_are_typed() {
        let good = Frame {
            kind: MsgKind::Close,
            request_id: 7,
            payload: Vec::new(),
        }
        .to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::read_from(&mut &bad_magic[..]),
            Err(FrameError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            Frame::read_from(&mut &bad_version[..]),
            Err(FrameError::UnsupportedVersion { got: 99 })
        ));

        let mut bad_kind = good.clone();
        bad_kind[5] = 0x7F;
        assert!(matches!(
            Frame::read_from(&mut &bad_kind[..]),
            Err(FrameError::BadKind {
                kind: 0x7F,
                request_id: 7
            })
        ));

        let mut oversized = good.clone();
        oversized[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut &oversized[..]),
            Err(FrameError::Oversized { request_id: 7, .. })
        ));

        let truncated = &good[..HEADER_LEN - 3];
        assert!(matches!(
            Frame::read_from(&mut &truncated[..]),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn hostile_length_prefixes_cannot_force_allocation() {
        // A u64-count vector claiming 2^61 elements in a 16-byte buffer
        // must be rejected before any allocation is attempted.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX / 4);
        put_u64(&mut bytes, 42);
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.u64s("values"),
            Err(WireError::Truncated { what: "values" })
        );

        // Same for string lengths...
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.string("s"), Err(WireError::TooLong { .. })));

        // ...and collection counts.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, (MAX_ITEMS + 1) as u32);
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.count(1, "c"), Err(WireError::TooLong { .. })));
    }

    #[test]
    fn query_options_reanchor_the_deadline_on_decode() {
        let opts = QueryOptions::default()
            .with_timeout(Duration::from_secs(10))
            .with_queue_timeout(Duration::from_millis(250));
        let back = QueryOptions::from_bytes(&opts.to_bytes()).unwrap();
        let remaining = back
            .deadline
            .expect("deadline survives")
            .saturating_duration_since(Instant::now());
        assert!(remaining <= Duration::from_secs(10));
        assert!(remaining > Duration::from_secs(9), "{remaining:?}");
        assert_eq!(back.queue_timeout, Some(Duration::from_millis(250)));
        assert!(!back.cancel.is_live(), "tokens never cross the wire");

        // No limits at all: one tag byte per option.
        let none = QueryOptions::default();
        assert_eq!(none.to_bytes(), vec![0, 0]);

        // A hostile u64::MAX budget decodes as "no deadline", not a panic.
        let mut bytes = Vec::new();
        put_opt_u64(&mut bytes, Some(u64::MAX));
        put_opt_u64(&mut bytes, None);
        let back = QueryOptions::from_bytes(&bytes).unwrap();
        assert!(back.deadline.is_none() || back.deadline.is_some());
    }
}
