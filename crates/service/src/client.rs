//! A minimal blocking client for the fleet daemon — used by the CI smoke,
//! the chaos campaign, and the load generator. One TCP connection, one
//! in-flight request at a time.

use crate::json;
use crate::protocol::{
    begin_frame, finish_frame, read_frame_into, FrameError, ProtoError, Request, Response,
    MAX_FRAME,
};
use crate::wire::{self, WIRE_MAGIC, WIRE_V1, WIRE_V2};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failure.
    Io(io::Error),
    /// The server's frame was malformed.
    Frame(FrameError),
    /// The server's payload did not parse as a response.
    Proto(ProtoError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::Frame(e) => write!(f, "client framing: {e}"),
            ClientError::Proto(e) => write!(f, "client protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One blocking connection to the daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Negotiated wire version: [`WIRE_V2`] after a successful binary
    /// handshake, [`WIRE_V1`] (JSON) otherwise.
    version: u8,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7421"`) speaking JSON (v1) —
    /// the codec every daemon understands.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            version: WIRE_V1,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        })
    }

    /// Connects and negotiates the v2 binary protocol: sends
    /// [`WIRE_MAGIC`] + [`WIRE_V2`] and adopts whatever version the daemon
    /// answers with (a pre-v2 daemon that rejects the hello outright
    /// surfaces as an error, not a silent downgrade — it never sent a
    /// magic back).
    ///
    /// # Errors
    ///
    /// Propagates connect/handshake failures;
    /// [`ClientError::Proto`] with [`ProtoError::BadField`]`("hello")` if
    /// the reply does not start with the magic (a pre-v2 daemon answers
    /// the hello with a JSON frame).
    pub fn connect_v2(addr: &str) -> Result<Self, ClientError> {
        let mut client = Self::connect(addr)?;
        let mut hello = [0u8; 5];
        hello[..4].copy_from_slice(&WIRE_MAGIC);
        hello[4] = WIRE_V2;
        client.stream.write_all(&hello)?;
        client.stream.flush()?;
        client.stream.read_exact(&mut hello)?;
        if hello[..4] != WIRE_MAGIC {
            return Err(ClientError::Proto(ProtoError::BadField("hello")));
        }
        client.version = wire::accepted_version(hello[4]);
        Ok(client)
    }

    /// The wire version this connection negotiated ([`WIRE_V1`] or
    /// [`WIRE_V2`]).
    #[must_use]
    pub fn wire_version(&self) -> u8 {
        self.version
    }

    /// Bounds how long [`Client::call`] waits for the reply frame.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_reply_timeout(&mut self, t: Duration) -> Result<(), ClientError> {
        self.stream.set_read_timeout(Some(t))?;
        Ok(())
    }

    /// Sends one request frame and reads one response frame.
    ///
    /// # Errors
    ///
    /// Typed client errors; a server-side refusal is an `Ok` carrying
    /// [`Response::Rejected`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        begin_frame(&mut self.wbuf);
        if self.version >= WIRE_V2 {
            wire::encode_request(req, &mut self.wbuf);
        } else {
            json::encode(req, &mut self.wbuf);
        }
        finish_frame(&mut self.wbuf)?;
        self.stream.write_all(&self.wbuf)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Writes raw bytes on the wire, bypassing framing — for fuzz/chaos
    /// tests that need to send garbage a well-formed client never would.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads one response frame without sending anything (pairs with
    /// [`Client::send_raw`]).
    ///
    /// # Errors
    ///
    /// Typed client errors.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        read_frame_into(&mut self.stream, MAX_FRAME, &mut self.rbuf).map_err(ClientError::Frame)?;
        if self.version >= WIRE_V2 {
            wire::decode_response(&self.rbuf).map_err(ClientError::Proto)
        } else {
            Response::from_json_bytes(&self.rbuf).map_err(ClientError::Proto)
        }
    }
}
