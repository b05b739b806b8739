//! Blocking client for the `rqld` wire protocol.
//!
//! One [`Client`] wraps one TCP connection and one server session. The
//! session id from the `HELLO` greeting is exposed so a *second*
//! connection can cancel this one's in-flight query — the same
//! out-of-band arrangement as Postgres' `BackendKeyData`.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    read_frame, write_frame, ProtoError, Request, RequestOptions, Response, WireDelta,
    WireDiagnostic, WireProfile, WireResult,
};

/// One event on a subscribed connection (see [`Client::subscribe`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SubscriptionEvent {
    /// A per-snapshot result-table change was pushed.
    Delta(WireDelta),
    /// The subscription ended; the connection is back in
    /// request-response mode.
    End {
        /// The standing query's name.
        name: String,
        /// Why it ended (`"unregistered"` or `"drained"`).
        reason: String,
    },
}

/// Client-side errors: transport/decode trouble, or a server `ERROR`
/// frame surfaced with its wire code.
#[derive(Debug)]
pub enum ClientError {
    /// Frame transport or decode failure.
    Proto(ProtoError),
    /// The server answered with an `ERROR` frame.
    Server {
        /// `[RQLxxx]`-style code.
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// The server answered with a frame the verb does not expect.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "[{code}] {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A connected `rqld` client.
pub struct Client {
    stream: TcpStream,
    session: u64,
    trace_id: Option<[u8; 16]>,
}

impl Client {
    /// Connect and consume the `HELLO` greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(ProtoError::Io)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            session: 0,
            trace_id: None,
        };
        match client.read_response()? {
            Response::Hello { session } => {
                client.session = session;
                Ok(client)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("expected HELLO")),
        }
    }

    /// This connection's server-side session id (the `CANCEL` handle).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Attach a client-generated 16-byte trace id to every subsequent
    /// PREPARE/RUN/PROFILE request (the `rql --trace-id` switch). The
    /// server records it in its trace ring, letting `stitch_trace.py`
    /// correlate this client's work across per-node exports.
    pub fn set_trace_id(&mut self, id: Option<[u8; 16]>) {
        self.trace_id = id;
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response> {
        let (opcode, payload) = request.encode();
        write_frame(&mut self.stream, opcode, &payload)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response> {
        let (opcode, payload) = read_frame(&mut self.stream)?;
        Ok(Response::decode(opcode, &payload)?)
    }

    /// One request-response exchange: an `ERROR` frame becomes
    /// [`ClientError::Server`]; `pick` accepts the expected reply.
    fn call<T>(
        &mut self,
        request: &Request,
        expected: &'static str,
        pick: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T> {
        match self.round_trip(request)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => pick(other).ok_or(ClientError::Unexpected(expected)),
        }
    }

    fn text(&mut self, request: &Request) -> Result<String> {
        self.call(request, "expected TEXT", |r| match r {
            Response::Text(text) => Some(text),
            _ => None,
        })
    }

    fn ok(&mut self, request: &Request) -> Result<()> {
        self.call(request, "expected OK", |r| {
            matches!(r, Response::Ok).then_some(())
        })
    }

    fn result(&mut self, request: &Request) -> Result<WireResult> {
        self.call(request, "expected RESULT", |r| match r {
            Response::Result(result) => Some(result),
            _ => None,
        })
    }

    fn options(&self, no_memo: bool) -> RequestOptions {
        RequestOptions {
            no_memo,
            trace: self.trace_id,
        }
    }

    /// Lint a program server-side; returns diagnostics, executes nothing.
    pub fn prepare(&mut self, program: &str) -> Result<Vec<WireDiagnostic>> {
        let request = Request::Prepare {
            program: program.into(),
            options: self.options(false),
        };
        self.call(&request, "expected DIAGNOSTICS", |r| match r {
            Response::Diagnostics { diagnostics } => Some(diagnostics),
            _ => None,
        })
    }

    /// Execute a program; returns result tables, reports and snapshots.
    pub fn run(&mut self, program: &str) -> Result<WireResult> {
        self.run_opts(program, false)
    }

    /// [`Client::run`] with a per-request memo override: `no_memo = true`
    /// asks the server to bypass its shared memo store for this program
    /// (the `--no-memo` ablation switch).
    pub fn run_opts(&mut self, program: &str, no_memo: bool) -> Result<WireResult> {
        self.result(&Request::Run {
            program: program.into(),
            options: self.options(no_memo),
        })
    }

    /// Execute a program and ask for the per-snapshot cost profile along
    /// with the results (the wire form of `rql --profile`).
    pub fn profile(&mut self, program: &str, no_memo: bool) -> Result<WireProfile> {
        let request = Request::Profile {
            program: program.into(),
            options: self.options(no_memo),
        };
        self.call(&request, "expected PROFILE", |r| match r {
            Response::Profile(profile) => Some(profile),
            _ => None,
        })
    }

    /// Cancel another session's in-flight query by its `HELLO` id.
    pub fn cancel(&mut self, session: u64) -> Result<()> {
        self.ok(&Request::Cancel { session })
    }

    /// One-line server status.
    pub fn status(&mut self) -> Result<String> {
        self.text(&Request::Status { flight: false })
    }

    /// Status plus the server's flight-recorder dump (live ring and the
    /// dump frozen at the last failed job, if any).
    pub fn status_flight(&mut self) -> Result<String> {
        self.text(&Request::Status { flight: true })
    }

    /// Metrics snapshot, human (`json = false`) or JSON.
    pub fn metrics(&mut self, json: bool) -> Result<String> {
        self.text(&Request::Metrics { json })
    }

    /// Replication status snapshot, human (`json = false`) or JSON: the
    /// server's role, phase, lag gauges and shipping/applying counters.
    pub fn replstatus(&mut self, json: bool) -> Result<String> {
        self.text(&Request::ReplStatus { json })
    }

    /// Register a standing query (`MAINTAIN QUERY name AS …`). Returns
    /// the server's confirmation line
    /// (`registered name=… table=… snapshots_seeded=…`).
    pub fn register(&mut self, statement: &str) -> Result<String> {
        self.text(&Request::Register {
            statement: statement.into(),
        })
    }

    /// Unregister a standing query by name. Its subscribers get a
    /// terminal `END` frame; the maintained table is left in place.
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.ok(&Request::Unregister { name: name.into() })
    }

    /// Subscribe to a standing query. Returns the opening `RESULT` frame
    /// (the full maintained table as of subscription time); the
    /// connection is then in push mode — call [`Client::next_event`]
    /// until it yields [`SubscriptionEvent::End`].
    pub fn subscribe(&mut self, name: &str) -> Result<WireResult> {
        self.result(&Request::Subscribe { name: name.into() })
    }

    /// Block for the next pushed frame on a subscribed connection.
    pub fn next_event(&mut self) -> Result<SubscriptionEvent> {
        match self.read_response()? {
            Response::Delta(delta) => Ok(SubscriptionEvent::Delta(delta)),
            Response::End { name, reason } => Ok(SubscriptionEvent::End { name, reason }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("expected DELTA or END")),
        }
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<()> {
        self.ok(&Request::Shutdown)
    }
}
