//! The `rqld` wire protocol (AUTH-less).
//!
//! Every frame is `[u32 length (BE)] [u8 opcode] [payload]`, where
//! `length` counts the opcode byte plus the payload. The server greets
//! each connection with a `HELLO` frame carrying the session id — the
//! out-of-band handle a *different* connection uses to `CANCEL` a query
//! running on this one (the Postgres `BackendKeyData` shape).
//!
//! Payloads are hand-rolled big-endian primitives: strings are
//! `u32`-length-prefixed UTF-8; [`Value`]s are tagged
//! (0 = Null, 1 = Integer, 2 = Real, 3 = Text); options are a `u8`
//! presence flag. No external serialization crates — the workspace
//! builds offline.
//!
//! Decoding is strict, and that is the versioning rule: every flag byte
//! rejects unknown bits, every count must fit the bytes that follow it,
//! and a payload must end exactly where its last field does. A new
//! option takes a new bit in a [`RequestOptions`] block, so an older
//! server refuses the frame loudly instead of silently ignoring it.

use std::fmt;
use std::io::{self, Read, Write};

use rql_sqlengine::Value;

/// Frames larger than this are rejected before allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Protocol decode/transport errors.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying socket/file error.
    Io(io::Error),
    /// Payload ended before a field was complete.
    Truncated,
    /// Unknown opcode or value tag.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Declared frame length exceeds [`MAX_FRAME`] (or is zero).
    BadLength(u32),
    /// A flag byte set a bit this build does not know.
    BadFlags(u8),
    /// Bytes remained after the last field of the payload.
    Trailing(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            ProtoError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            ProtoError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtoError::BadFlags(b) => write!(f, "unknown flag bits {b:#04x}"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Result alias for protocol operations.
pub type Result<T> = std::result::Result<T, ProtoError>;

// ---- opcodes ---------------------------------------------------------

/// Client → server verbs.
pub mod op {
    /// Analyze a program, return diagnostics without executing.
    pub const PREPARE: u8 = 0x01;
    /// Execute a program, return result tables + reports.
    pub const RUN: u8 = 0x02;
    /// Cancel the in-flight query of another session (by session id).
    pub const CANCEL: u8 = 0x03;
    /// One-line server status.
    pub const STATUS: u8 = 0x04;
    /// Metrics snapshot (human or JSON).
    pub const METRICS: u8 = 0x05;
    /// Graceful drain: finish queued work, then stop.
    pub const SHUTDOWN: u8 = 0x06;
    /// Execute a program and return its result plus a profile report.
    pub const PROFILE: u8 = 0x07;
    /// Register a standing query (`MAINTAIN QUERY name AS …`).
    pub const REGISTER: u8 = 0x08;
    /// Unregister a standing query by name.
    pub const UNREGISTER: u8 = 0x09;
    /// Subscribe to a standing query's result-delta stream. The reply is
    /// a `RESULT` frame (the current maintained table), then `DELTA`
    /// frames per commit until a terminal `END` frame or disconnect.
    pub const SUBSCRIBE: u8 = 0x0A;
    /// Replication status snapshot (human or JSON): role, phase, lag and
    /// shipping/applying counters from the `repl_` metrics section.
    pub const REPLSTATUS: u8 = 0x0B;
}

/// Server → client frames.
pub mod resp {
    /// Connection greeting: this connection's session id.
    pub const HELLO: u8 = 0x81;
    /// `PREPARE` reply: structured diagnostics.
    pub const DIAGNOSTICS: u8 = 0x82;
    /// `RUN` reply: result tables, mechanism reports, snapshot ids.
    pub const RESULT: u8 = 0x83;
    /// Failure, with an `[RQLxxx]`-style code when one applies.
    pub const ERROR: u8 = 0x84;
    /// Plain text (`STATUS`, `METRICS`).
    pub const TEXT: u8 = 0x85;
    /// Bare acknowledgement (`CANCEL`, `SHUTDOWN`).
    pub const OK: u8 = 0x86;
    /// `PROFILE` reply: a `RESULT` body plus profile renderings.
    pub const PROFILE: u8 = 0x87;
    /// Pushed result-delta frame for one subscribed standing query:
    /// rows added/removed by one snapshot. Row shape matches the
    /// columns of the `RESULT` frame that opened the subscription.
    pub const DELTA: u8 = 0x88;
    /// Terminal subscription frame: no more deltas follow (query
    /// unregistered, or the server is draining).
    pub const END: u8 = 0x89;
}

// ---- frame I/O -------------------------------------------------------

/// Write one `[len][op][payload]` frame.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32 + 1;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(&[opcode])?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame; returns `(opcode, payload)`.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(ProtoError::BadLength(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let opcode = body[0];
    body.remove(0);
    Ok((opcode, body))
}

// ---- payload primitives ----------------------------------------------

/// Append-only payload builder.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Fresh empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, yielding the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a raw 16-byte trace id (fixed size, no length prefix).
    pub fn put_trace16(&mut self, id: &[u8; 16]) {
        self.buf.extend_from_slice(id);
    }

    /// Append a `u32` element count.
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Append a tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Integer(i) => {
                self.put_u8(1);
                self.put_u64(*i as u64);
            }
            Value::Real(r) => {
                self.put_u8(2);
                self.put_u64(r.to_bits());
            }
            Value::Text(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
        }
    }
}

/// Cursor over a received payload.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a flag byte, rejecting any bit outside `known`.
    pub fn get_flags(&mut self, known: u8) -> Result<u8> {
        let b = self.get_u8()?;
        if b & !known != 0 {
            return Err(ProtoError::BadFlags(b));
        }
        Ok(b)
    }

    /// Read a boolean byte (0 or 1).
    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_flags(1)? == 1)
    }

    /// Read a `u32` element count, rejecting counts the rest of the
    /// payload cannot hold at `min_size` bytes per element — so a
    /// hostile count can never size an allocation past the frame.
    pub fn get_len(&mut self, min_size: usize) -> Result<usize> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_size) > self.buf.len() - self.pos {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    /// Succeed only when every payload byte has been read.
    pub fn finish(&self) -> Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(ProtoError::Trailing(n)),
        }
    }

    /// Read a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    /// Read a raw 16-byte trace id.
    pub fn get_trace16(&mut self) -> Result<[u8; 16]> {
        let mut id = [0u8; 16];
        id.copy_from_slice(self.take(16)?);
        Ok(id)
    }

    /// Read a tagged [`Value`].
    pub fn get_value(&mut self) -> Result<Value> {
        match self.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Integer(self.get_u64()? as i64)),
            2 => Ok(Value::Real(f64::from_bits(self.get_u64()?))),
            3 => Ok(Value::Text(self.get_str()?)),
            t => Err(ProtoError::BadTag(t)),
        }
    }
}

// ---- requests --------------------------------------------------------

/// Bits of the [`RequestOptions`] flag byte.
mod option {
    /// Skip the server's shared memo store.
    pub const NO_MEMO: u8 = 1;
    /// A 16-byte trace id follows the flag byte.
    pub const TRACE: u8 = 2;
}

/// The options block ending every PREPARE, RUN and PROFILE request:
/// one flag byte (bit 0 `no_memo`, bit 1 "trace id follows"), then the
/// 16-byte trace id when bit 1 is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Skip the server's shared memo store for this request (the
    /// `--no-memo` ablation switch; PREPARE ignores it).
    pub no_memo: bool,
    /// Client-generated trace id (`rql --trace-id`), recorded into the
    /// server's trace ring for cross-node stitching.
    pub trace: Option<[u8; 16]>,
}

impl RequestOptions {
    fn encode(&self, w: &mut PayloadWriter) {
        let no_memo = u8::from(self.no_memo) * option::NO_MEMO;
        let trace = u8::from(self.trace.is_some()) * option::TRACE;
        w.put_u8(no_memo | trace);
        if let Some(id) = &self.trace {
            w.put_trace16(id);
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<RequestOptions> {
        let flags = r.get_flags(option::NO_MEMO | option::TRACE)?;
        Ok(RequestOptions {
            no_memo: flags & option::NO_MEMO != 0,
            trace: if flags & option::TRACE != 0 {
                Some(r.get_trace16()?)
            } else {
                None
            },
        })
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Lint a program; no execution.
    Prepare {
        /// The `.rql` program text.
        program: String,
        /// The request's options block.
        options: RequestOptions,
    },
    /// Execute a program.
    Run {
        /// The `.rql` program text.
        program: String,
        /// The request's options block.
        options: RequestOptions,
    },
    /// Cancel the in-flight query of session `session`.
    Cancel {
        /// Target session id (from that connection's `HELLO`).
        session: u64,
    },
    /// One-line server status.
    Status {
        /// Append a flight-recorder dump to the status line.
        flight: bool,
    },
    /// Metrics snapshot.
    Metrics {
        /// `true` → JSON, `false` → human-readable table.
        json: bool,
    },
    /// Graceful drain and stop.
    Shutdown,
    /// Execute a program, returning results plus a profile report.
    Profile {
        /// The `.rql` program text.
        program: String,
        /// The request's options block.
        options: RequestOptions,
    },
    /// Register a standing query.
    Register {
        /// The full `MAINTAIN QUERY name AS …` statement.
        statement: String,
    },
    /// Unregister a standing query.
    Unregister {
        /// The registered query name.
        name: String,
    },
    /// Subscribe to a standing query's delta stream.
    Subscribe {
        /// The registered query name.
        name: String,
    },
    /// Replication status snapshot.
    ReplStatus {
        /// `true` → JSON, `false` → human-readable lines.
        json: bool,
    },
}

impl Request {
    /// Encode to `(opcode, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = PayloadWriter::new();
        let opcode = match self {
            Request::Prepare { program, options } => {
                w.put_str(program);
                options.encode(&mut w);
                op::PREPARE
            }
            Request::Run { program, options } => {
                w.put_str(program);
                options.encode(&mut w);
                op::RUN
            }
            Request::Profile { program, options } => {
                w.put_str(program);
                options.encode(&mut w);
                op::PROFILE
            }
            Request::Cancel { session } => {
                w.put_u64(*session);
                op::CANCEL
            }
            Request::Status { flight } => {
                w.put_u8(u8::from(*flight));
                op::STATUS
            }
            Request::Metrics { json } => {
                w.put_u8(u8::from(*json));
                op::METRICS
            }
            Request::ReplStatus { json } => {
                w.put_u8(u8::from(*json));
                op::REPLSTATUS
            }
            Request::Shutdown => op::SHUTDOWN,
            Request::Register { statement } => {
                w.put_str(statement);
                op::REGISTER
            }
            Request::Unregister { name } => {
                w.put_str(name);
                op::UNREGISTER
            }
            Request::Subscribe { name } => {
                w.put_str(name);
                op::SUBSCRIBE
            }
        };
        (opcode, w.into_bytes())
    }

    /// Decode from a received frame.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request> {
        let mut r = PayloadReader::new(payload);
        let request = match opcode {
            op::PREPARE => Request::Prepare {
                program: r.get_str()?,
                options: RequestOptions::decode(&mut r)?,
            },
            op::RUN => Request::Run {
                program: r.get_str()?,
                options: RequestOptions::decode(&mut r)?,
            },
            op::PROFILE => Request::Profile {
                program: r.get_str()?,
                options: RequestOptions::decode(&mut r)?,
            },
            op::CANCEL => Request::Cancel {
                session: r.get_u64()?,
            },
            op::STATUS => Request::Status {
                flight: r.get_bool()?,
            },
            op::METRICS => Request::Metrics {
                json: r.get_bool()?,
            },
            op::REPLSTATUS => Request::ReplStatus {
                json: r.get_bool()?,
            },
            op::SHUTDOWN => Request::Shutdown,
            op::REGISTER => Request::Register {
                statement: r.get_str()?,
            },
            op::UNREGISTER => Request::Unregister { name: r.get_str()? },
            op::SUBSCRIBE => Request::Subscribe { name: r.get_str()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        r.finish()?;
        Ok(request)
    }
}

// ---- responses -------------------------------------------------------

/// A structured fix as it travels over the wire, inline with its
/// diagnostic behind a presence byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFix {
    /// Byte range in the submitted program to replace.
    pub start: u32,
    /// End of the byte range (exclusive).
    pub end: u32,
    /// 0 = machine-applicable, 1 = maybe-incorrect, 2 = has-placeholders.
    pub applicability: u8,
    /// Replacement text.
    pub replacement: String,
}

/// A diagnostic as it travels over the wire (code + span, the shape
/// `rqlcheck` produces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Stable code, e.g. `RQL001`.
    pub code: String,
    /// 0 = info, 1 = warning, 2 = error.
    pub severity: u8,
    /// Human message (no code prefix).
    pub message: String,
    /// Byte range in the submitted program, when known.
    pub span: Option<(u32, u32)>,
    /// Structured fix, when the analyzer derived one.
    pub fix: Option<WireFix>,
}

/// One result table (a top-level SELECT's output).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTable {
    /// Column names.
    pub columns: Vec<String>,
    /// Row values.
    pub rows: Vec<Vec<Value>>,
}

/// Per-mechanism cost summary (the wire projection of `RqlReport`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReport {
    /// Result table the mechanism populated.
    pub table: String,
    /// Loop iterations (snapshots visited).
    pub iterations: u64,
    /// Total Qq rows across iterations.
    pub qq_rows: u64,
    /// Heap pages skipped by delta-driven iteration (cache splice).
    pub pages_skipped_delta: u64,
    /// Heap pages skipped because a zone-map/bloom sidecar refuted the
    /// Qq WHERE clause.
    pub pages_pruned_filter: u64,
    /// Pagelog fetches during the run.
    pub pagelog_reads: u64,
    /// Buffer-cache hits during the run.
    pub cache_hits: u64,
}

/// `RUN` reply payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireResult {
    /// SELECT outputs in statement order.
    pub tables: Vec<WireTable>,
    /// Mechanism reports in invocation order.
    pub reports: Vec<WireReport>,
    /// Snapshot ids the program declared.
    pub snapshots: Vec<u64>,
    /// Server-side wall time, microseconds.
    pub elapsed_micros: u64,
}

/// `PROFILE` reply payload: the run's result plus the server-rendered
/// profile report in both human and JSON form (the server renders, so
/// every client — CLI, scripts — shows identical tables).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireProfile {
    /// The same body a `RUN` would return.
    pub result: WireResult,
    /// Human tree rendering of the per-snapshot cost table.
    pub human: String,
    /// JSON rendering of the same profile.
    pub json: String,
}

/// Smallest encoding of one [`WireReport`]: an empty table name plus
/// six `u64`s.
const REPORT_MIN: usize = 4 + 6 * 8;

fn put_rows(w: &mut PayloadWriter, rows: &[Vec<Value>]) {
    w.put_len(rows.len());
    for row in rows {
        w.put_len(row.len());
        for v in row {
            w.put_value(v);
        }
    }
}

fn get_rows(r: &mut PayloadReader<'_>) -> Result<Vec<Vec<Value>>> {
    let nrows = r.get_len(4)?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let nvals = r.get_len(1)?;
        let mut row = Vec::with_capacity(nvals);
        for _ in 0..nvals {
            row.push(r.get_value()?);
        }
        rows.push(row);
    }
    Ok(rows)
}

impl WireResult {
    /// Encode into an existing payload (shared by `RESULT` and
    /// `PROFILE`).
    fn encode_into(&self, w: &mut PayloadWriter) {
        w.put_len(self.tables.len());
        for t in &self.tables {
            w.put_len(t.columns.len());
            for c in &t.columns {
                w.put_str(c);
            }
            put_rows(w, &t.rows);
        }
        w.put_len(self.reports.len());
        for r in &self.reports {
            w.put_str(&r.table);
            w.put_u64(r.iterations);
            w.put_u64(r.qq_rows);
            w.put_u64(r.pages_skipped_delta);
            w.put_u64(r.pages_pruned_filter);
            w.put_u64(r.pagelog_reads);
            w.put_u64(r.cache_hits);
        }
        w.put_len(self.snapshots.len());
        for s in &self.snapshots {
            w.put_u64(*s);
        }
        w.put_u64(self.elapsed_micros);
    }

    /// Decode from a payload cursor (shared by `RESULT` and `PROFILE`).
    fn decode_from(r: &mut PayloadReader<'_>) -> Result<WireResult> {
        let ntables = r.get_len(8)?;
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            let ncols = r.get_len(4)?;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                columns.push(r.get_str()?);
            }
            let rows = get_rows(r)?;
            tables.push(WireTable { columns, rows });
        }
        let nreports = r.get_len(REPORT_MIN)?;
        let mut reports = Vec::with_capacity(nreports);
        for _ in 0..nreports {
            reports.push(WireReport {
                table: r.get_str()?,
                iterations: r.get_u64()?,
                qq_rows: r.get_u64()?,
                pages_skipped_delta: r.get_u64()?,
                pages_pruned_filter: r.get_u64()?,
                pagelog_reads: r.get_u64()?,
                cache_hits: r.get_u64()?,
            });
        }
        let nsnaps = r.get_len(8)?;
        let mut snapshots = Vec::with_capacity(nsnaps);
        for _ in 0..nsnaps {
            snapshots.push(r.get_u64()?);
        }
        Ok(WireResult {
            tables,
            reports,
            snapshots,
            elapsed_micros: r.get_u64()?,
        })
    }
}

/// A pushed result-delta frame: what one snapshot did to one standing
/// query's maintained table. Row shape matches the `RESULT` frame that
/// opened the subscription.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireDelta {
    /// The standing query's registered name.
    pub name: String,
    /// The snapshot that caused the change.
    pub snap_id: u64,
    /// Rows added to the result table (multiset semantics).
    pub added: Vec<Vec<Value>>,
    /// Rows removed from the result table (multiset semantics).
    pub removed: Vec<Vec<Value>>,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Greeting with this connection's session id.
    Hello {
        /// Session id for out-of-band `CANCEL`.
        session: u64,
    },
    /// `PREPARE` reply.
    Diagnostics {
        /// Findings, most severe first as produced by the analyzer.
        diagnostics: Vec<WireDiagnostic>,
    },
    /// `RUN` reply.
    Result(WireResult),
    /// Failure.
    Error {
        /// `[RQLxxx]`-style code when one applies, else empty.
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// Plain text reply.
    Text(String),
    /// Bare acknowledgement.
    Ok,
    /// `PROFILE` reply.
    Profile(WireProfile),
    /// Pushed result-delta frame (subscriptions only).
    Delta(WireDelta),
    /// Terminal subscription frame.
    End {
        /// The standing query's registered name.
        name: String,
        /// Why the stream ended (`unregistered`, `drained`).
        reason: String,
    },
}

impl Response {
    /// Encode to `(opcode, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = PayloadWriter::new();
        match self {
            Response::Hello { session } => {
                w.put_u64(*session);
                (resp::HELLO, w.into_bytes())
            }
            Response::Diagnostics { diagnostics } => {
                w.put_len(diagnostics.len());
                for d in diagnostics {
                    w.put_str(&d.code);
                    w.put_u8(d.severity);
                    w.put_str(&d.message);
                    w.put_u8(u8::from(d.span.is_some()));
                    if let Some((start, end)) = d.span {
                        w.put_u32(start);
                        w.put_u32(end);
                    }
                    w.put_u8(u8::from(d.fix.is_some()));
                    if let Some(f) = &d.fix {
                        w.put_u32(f.start);
                        w.put_u32(f.end);
                        w.put_u8(f.applicability);
                        w.put_str(&f.replacement);
                    }
                }
                (resp::DIAGNOSTICS, w.into_bytes())
            }
            Response::Result(res) => {
                res.encode_into(&mut w);
                (resp::RESULT, w.into_bytes())
            }
            Response::Profile(p) => {
                p.result.encode_into(&mut w);
                w.put_str(&p.human);
                w.put_str(&p.json);
                (resp::PROFILE, w.into_bytes())
            }
            Response::Error { code, message } => {
                w.put_str(code);
                w.put_str(message);
                (resp::ERROR, w.into_bytes())
            }
            Response::Text(s) => {
                w.put_str(s);
                (resp::TEXT, w.into_bytes())
            }
            Response::Ok => (resp::OK, Vec::new()),
            Response::Delta(d) => {
                w.put_str(&d.name);
                w.put_u64(d.snap_id);
                put_rows(&mut w, &d.added);
                put_rows(&mut w, &d.removed);
                (resp::DELTA, w.into_bytes())
            }
            Response::End { name, reason } => {
                w.put_str(name);
                w.put_str(reason);
                (resp::END, w.into_bytes())
            }
        }
    }

    /// Decode from a received frame.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response> {
        let mut r = PayloadReader::new(payload);
        let response = match opcode {
            resp::HELLO => Response::Hello {
                session: r.get_u64()?,
            },
            resp::DIAGNOSTICS => {
                // code + severity + message + two presence bytes.
                let n = r.get_len(4 + 1 + 4 + 1 + 1)?;
                let mut diagnostics = Vec::with_capacity(n);
                for _ in 0..n {
                    diagnostics.push(WireDiagnostic {
                        code: r.get_str()?,
                        severity: r.get_u8()?,
                        message: r.get_str()?,
                        span: if r.get_bool()? {
                            Some((r.get_u32()?, r.get_u32()?))
                        } else {
                            None
                        },
                        fix: if r.get_bool()? {
                            Some(WireFix {
                                start: r.get_u32()?,
                                end: r.get_u32()?,
                                applicability: r.get_u8()?,
                                replacement: r.get_str()?,
                            })
                        } else {
                            None
                        },
                    });
                }
                Response::Diagnostics { diagnostics }
            }
            resp::RESULT => Response::Result(WireResult::decode_from(&mut r)?),
            resp::PROFILE => Response::Profile(WireProfile {
                result: WireResult::decode_from(&mut r)?,
                human: r.get_str()?,
                json: r.get_str()?,
            }),
            resp::ERROR => Response::Error {
                code: r.get_str()?,
                message: r.get_str()?,
            },
            resp::TEXT => Response::Text(r.get_str()?),
            resp::OK => Response::Ok,
            resp::DELTA => Response::Delta(WireDelta {
                name: r.get_str()?,
                snap_id: r.get_u64()?,
                added: get_rows(&mut r)?,
                removed: get_rows(&mut r)?,
            }),
            resp::END => Response::End {
                name: r.get_str()?,
                reason: r.get_str()?,
            },
            t => return Err(ProtoError::BadTag(t)),
        };
        r.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use proptest::prelude::*;

    use super::*;

    /// One valid encoding of every request variant, traced and not.
    fn all_requests() -> Vec<Request> {
        let traced = RequestOptions {
            no_memo: true,
            trace: Some([7; 16]),
        };
        vec![
            Request::Prepare {
                program: "SELECT 1;".into(),
                options: RequestOptions::default(),
            },
            Request::Prepare {
                program: "SELECT 1;".into(),
                options: RequestOptions {
                    no_memo: false,
                    trace: Some([0xAB; 16]),
                },
            },
            Request::Run {
                program: "COMMIT WITH SNAPSHOT;".into(),
                options: RequestOptions::default(),
            },
            Request::Run {
                program: "SELECT 1;".into(),
                options: traced,
            },
            Request::Profile {
                program: "SELECT 1;".into(),
                options: RequestOptions {
                    no_memo: true,
                    trace: None,
                },
            },
            Request::Profile {
                program: "SELECT 1;".into(),
                options: traced,
            },
            Request::Cancel { session: 42 },
            Request::Status { flight: false },
            Request::Status { flight: true },
            Request::Metrics { json: true },
            Request::Metrics { json: false },
            Request::Shutdown,
            Request::Register {
                statement: "MAINTAIN QUERY w AS SELECT CollateData(snap_id, 'SELECT 1', 'T') \
                            FROM SnapIds"
                    .into(),
            },
            Request::Unregister { name: "w".into() },
            Request::Subscribe { name: "w".into() },
            Request::ReplStatus { json: true },
            Request::ReplStatus { json: false },
        ]
    }

    fn result() -> WireResult {
        WireResult {
            tables: vec![WireTable {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    vec![Value::Integer(-3), Value::Text("x".into())],
                    vec![Value::Null, Value::Real(2.5)],
                ],
            }],
            reports: vec![WireReport {
                table: "r".into(),
                iterations: 4,
                qq_rows: 16,
                pages_skipped_delta: 9,
                pages_pruned_filter: 3,
                pagelog_reads: 2,
                cache_hits: 30,
            }],
            snapshots: vec![1, 2, 3],
            elapsed_micros: 1234,
        }
    }

    /// One valid encoding of every response variant, including a
    /// diagnostic that carries a fix.
    fn all_responses() -> Vec<Response> {
        vec![
            Response::Hello { session: 7 },
            Response::Ok,
            Response::Text("queue_depth 0".into()),
            Response::Error {
                code: "RQL300".into(),
                message: "query cancelled by client".into(),
            },
            Response::Diagnostics {
                diagnostics: vec![
                    WireDiagnostic {
                        code: "RQL001".into(),
                        severity: 2,
                        message: "unknown table t".into(),
                        span: Some((10, 11)),
                        fix: None,
                    },
                    WireDiagnostic {
                        code: "RQL210".into(),
                        severity: 0,
                        message: "delta eligible".into(),
                        span: None,
                        fix: None,
                    },
                    WireDiagnostic {
                        code: "RQL310".into(),
                        severity: 1,
                        message: "result table 'dead' is never read".into(),
                        span: Some((40, 51)),
                        fix: Some(WireFix {
                            start: 28,
                            end: 99,
                            applicability: 0,
                            replacement: "x".into(),
                        }),
                    },
                ],
            },
            Response::Result(result()),
            Response::Result(WireResult::default()),
            Response::Profile(WireProfile {
                result: result(),
                human: "profile: 1 mechanism call(s)\n".into(),
                json: "{\"mechanisms\":[]}".into(),
            }),
            Response::Delta(WireDelta {
                name: "w".into(),
                snap_id: 9,
                added: vec![vec![Value::Integer(1), Value::Text("x".into())]],
                removed: vec![vec![Value::Null, Value::Real(0.5)], vec![Value::Integer(2)]],
            }),
            Response::Delta(WireDelta::default()),
            Response::End {
                name: "w".into(),
                reason: "drained".into(),
            },
        ]
    }

    /// Every valid frame as `[opcode] ++ payload`.
    fn all_frames() -> Vec<Vec<u8>> {
        let requests = all_requests().into_iter().map(|r| r.encode());
        let responses = all_responses().into_iter().map(|r| r.encode());
        requests
            .chain(responses)
            .map(|(opcode, payload)| [vec![opcode], payload].concat())
            .collect()
    }

    /// Run both decoders over arbitrary bytes; either may fail, neither
    /// may panic or abort.
    fn decode_any(frame: &[u8]) {
        if let Some((&opcode, payload)) = frame.split_first() {
            let _ = Request::decode(opcode, payload);
            let _ = Response::decode(opcode, payload);
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in all_requests() {
            let (opc, payload) = req.encode();
            let mut wire = Vec::new();
            write_frame(&mut wire, opc, &payload).unwrap();
            let (opc2, payload2) = read_frame(&mut wire.as_slice()).unwrap();
            assert_eq!(opc, opc2);
            assert_eq!(Request::decode(opc2, &payload2).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in all_responses() {
            let (opc, payload) = resp.encode();
            let mut wire = Vec::new();
            write_frame(&mut wire, opc, &payload).unwrap();
            let (opc2, payload2) = read_frame(&mut wire.as_slice()).unwrap();
            assert_eq!(Response::decode(opc2, &payload2).unwrap(), resp);
        }
    }

    #[test]
    fn decoding_is_strict() {
        // Unknown option bits are refused, not ignored.
        let mut w = PayloadWriter::new();
        w.put_str("SELECT 1;");
        w.put_u8(0b100);
        let bytes = w.into_bytes();
        for opcode in [op::PREPARE, op::RUN, op::PROFILE] {
            assert!(matches!(
                Request::decode(opcode, &bytes),
                Err(ProtoError::BadFlags(0b100))
            ));
        }
        // The options block is required.
        let mut w = PayloadWriter::new();
        w.put_str("SELECT 1;");
        assert!(matches!(
            Request::decode(op::RUN, &w.into_bytes()),
            Err(ProtoError::Truncated)
        ));
        // The trace bit promises 16 bytes.
        let mut w = PayloadWriter::new();
        w.put_str("SELECT 1;");
        w.put_u8(option::TRACE);
        assert!(matches!(
            Request::decode(op::RUN, &w.into_bytes()),
            Err(ProtoError::Truncated)
        ));
        // STATUS carries its flight byte like METRICS its json byte.
        assert!(matches!(
            Request::decode(op::STATUS, &[]),
            Err(ProtoError::Truncated)
        ));
        assert!(matches!(
            Request::decode(op::METRICS, &[2]),
            Err(ProtoError::BadFlags(2))
        ));
        // Trailing bytes are an error on every frame.
        for frame in all_frames() {
            let (opcode, payload) = (frame[0], [&frame[1..], &[0]].concat());
            let is_request = Request::decode(opcode, &frame[1..]).is_ok();
            let err = if is_request {
                Request::decode(opcode, &payload).unwrap_err()
            } else {
                Response::decode(opcode, &payload).unwrap_err()
            };
            assert!(
                matches!(err, ProtoError::Trailing(1)),
                "{opcode:#04x}: {err}"
            );
        }
    }

    #[test]
    fn huge_counts_without_body_are_truncated() {
        let max = u32::MAX.to_be_bytes();
        let count = |prefix: &[u8]| [prefix, &max].concat();
        let one = 1u32.to_be_bytes();
        let zero = 0u32.to_be_bytes();
        let cases: Vec<(u8, Vec<u8>)> = vec![
            // RESULT: tables, columns, rows, values, reports, snapshots.
            (resp::RESULT, count(&[])),
            (resp::RESULT, count(&one)),
            (resp::RESULT, count(&[one, zero].concat())),
            (resp::RESULT, count(&[one, zero, one].concat())),
            (resp::RESULT, count(&zero)),
            (resp::RESULT, count(&[zero, zero].concat())),
            (resp::PROFILE, count(&[])),
            (resp::PROFILE, count(&zero)),
            // The 9-byte DIAGNOSTICS frame `00 00 00 05 82 ff ff ff ff`.
            (resp::DIAGNOSTICS, count(&[])),
            // DELTA: added rows, removed rows, one row's values.
            (resp::DELTA, count(&[zero.as_slice(), &[0; 8]].concat())),
            (
                resp::DELTA,
                count(&[zero.as_slice(), &[0; 8], &zero].concat()),
            ),
            (
                resp::DELTA,
                count(&[zero.as_slice(), &[0; 8], &one].concat()),
            ),
        ];
        for (opcode, payload) in cases {
            assert!(
                matches!(
                    Response::decode(opcode, &payload),
                    Err(ProtoError::Truncated)
                ),
                "{opcode:#04x} {payload:02x?}"
            );
        }
    }

    #[test]
    fn every_truncation_decodes_or_errs() {
        for frame in all_frames() {
            for end in 0..frame.len() {
                decode_any(&frame[..end]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn byte_flips_decode_or_err(
            pick in 0usize..64,
            flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..6),
        ) {
            let frames = all_frames();
            let mut frame = frames[pick % frames.len()].clone();
            for (pos, mask) in flips {
                let at = pos as usize % frame.len();
                frame[at] ^= mask;
            }
            decode_any(&frame);
        }
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, op::STATUS, &[0]).unwrap();
        wire.truncate(3);
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ProtoError::Io(_))
        ));

        let huge = (MAX_FRAME + 1).to_be_bytes();
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ProtoError::BadLength(_))
        ));

        let zero = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut zero.as_slice()),
            Err(ProtoError::BadLength(0))
        ));
    }

    #[test]
    fn negative_integers_survive() {
        let mut w = PayloadWriter::new();
        w.put_value(&Value::Integer(i64::MIN));
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_value().unwrap(), Value::Integer(i64::MIN));
    }
}
