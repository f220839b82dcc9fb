//! The blocking TCP client: a [`MapcompService`] whose backend lives on the
//! other side of a socket.
//!
//! One [`Client`] owns one connection and serialises its calls through an
//! internal mutex, so a client can be shared by reference across threads.
//! Each call is one request frame followed by one reply frame — the *wire
//! protocol* supports pipelining (servers answer back-to-back frames in
//! order), but this blocking client keeps the simple lock-step discipline.
//! For *parallel* traffic, open one client per thread; the event-loop
//! server multiplexes any number of connections.
//!
//! Against a server started with an auth token, build the client with
//! [`Client::with_auth_token`]: the token rides the first frame as the
//! optional `auth` field (authenticating the connection once) and is
//! omitted afterwards.

use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};

use crate::api::{Request, Response, ServiceError};
use crate::service::MapcompService;
use crate::wire::{decode_reply, encode_request_frame, read_frame};

/// A blocking client over one TCP connection.
pub struct Client {
    connection: Mutex<Connection>,
    auth_token: Option<String>,
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Has the auth token already been presented on this connection?
    auth_sent: bool,
}

impl Client {
    /// Connect to a server at `addr` (e.g. `127.0.0.1:7171`).
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(|error| {
            ServiceError::transport(format!("cannot connect to {addr}: {error}"))
        })?;
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|error| ServiceError::transport(format!("cannot clone stream: {error}")))?;
        Ok(Client {
            connection: Mutex::new(Connection {
                reader: BufReader::new(stream),
                writer,
                auth_sent: false,
            }),
            auth_token: None,
        })
    }

    /// Present `token` in the first request frame's `auth` field, for
    /// servers that require authentication. The server remembers the
    /// connection once the token checks out, so later frames omit it —
    /// with no token the client's frames are byte-identical to an
    /// auth-unaware build's.
    pub fn with_auth_token(mut self, token: Option<String>) -> Self {
        self.auth_token = token;
        self
    }

    /// Send one request and read its reply.
    pub fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.call_with_trace(request, None)
    }

    /// Send one request carrying `trace` as the optional `trace` frame
    /// field, so the serving side's spans adopt the caller's trace ID.
    pub fn call_with_trace(
        &self,
        request: Request,
        trace: Option<u64>,
    ) -> Result<Response, ServiceError> {
        let mut connection = self.connection.lock().unwrap_or_else(PoisonError::into_inner);
        let auth = if connection.auth_sent { None } else { self.auth_token.as_deref() };
        let frame = encode_request_frame(&request, trace, auth);
        connection
            .writer
            .write_all(frame.as_bytes())
            .and_then(|()| connection.writer.flush())
            .map_err(|error| ServiceError::transport(format!("cannot send request: {error}")))?;
        connection.auth_sent = true;
        let frame = read_frame(&mut connection.reader)
            .map_err(|error| ServiceError::transport(format!("cannot read reply: {error}")))?
            .ok_or_else(|| ServiceError::transport("server closed the connection"))?;
        decode_reply(&frame)?
    }
}

impl MapcompService for Client {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        Client::call(self, request)
    }

    fn call_traced(&self, request: Request, trace: Option<u64>) -> Result<Response, ServiceError> {
        self.call_with_trace(request, trace)
    }
}
