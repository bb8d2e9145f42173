//! Client side of the `timberd` wire protocol.
//!
//! The protocol (v0) is deliberately tiny: every message — request or
//! response — is one *frame*, a little-endian `u32` payload length
//! followed by that many bytes. A request payload is an opcode byte plus
//! an opcode-specific body; a response payload is a status byte (`0` ok,
//! `1` error) plus either the opcode's result or a UTF-8 error message.
//! There is no handshake, no authentication, and no pipelining: each
//! connection processes one request at a time, in order.
//!
//! Connections are *sessions*. [`Client::snapshot`] pins the session to
//! the store's current committed state: every subsequent query on that
//! connection answers from the pinned snapshot, unaffected by commits
//! from other connections, until [`Client::release`] (or disconnect).
//!
//! ```no_run
//! use timber_client::{Client, Mode};
//! let mut c = Client::connect("127.0.0.1:7345").unwrap();
//! let id = c.insert_xml("<bib><article><author>Jack</author></article></bib>").unwrap();
//! let xml = c.query("FOR $a IN ...", Mode::Grouped).unwrap();
//! c.delete(id).unwrap();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod proto;

pub use proto::Mode;

use proto::Opcode;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What a client call can fail with: transport trouble or a typed error
/// the server returned (status byte `1`).
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or could not be established).
    Io(std::io::Error),
    /// The server processed the request and reported an error.
    Server(String),
    /// The server's response didn't parse as the opcode's result shape.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, ClientError>;

/// A blocking connection to a `timberd` server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a listening `timberd`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.stream.peer_addr()
    }

    fn call(&mut self, op: Opcode, body: &[u8]) -> Result<Vec<u8>> {
        let mut req = Vec::with_capacity(body.len() + 1);
        req.push(op as u8);
        req.extend_from_slice(body);
        proto::write_frame(&mut self.stream, &req)?;
        let resp = proto::read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        match resp.split_first() {
            Some((0, payload)) => Ok(payload.to_vec()),
            Some((_, payload)) => Err(ClientError::Server(
                String::from_utf8_lossy(payload).into_owned(),
            )),
            None => Err(ClientError::Protocol("empty response frame")),
        }
    }

    fn call_text(&mut self, op: Opcode, body: &[u8]) -> Result<String> {
        let payload = self.call(op, body)?;
        String::from_utf8(payload).map_err(|_| ClientError::Protocol("response is not UTF-8"))
    }

    fn call_u64(&mut self, op: Opcode, body: &[u8]) -> Result<u64> {
        let payload = self.call(op, body)?;
        let bytes: [u8; 8] = payload
            .as_slice()
            .try_into()
            .map_err(|_| ClientError::Protocol("expected a u64 response"))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Run a query under the given plan mode; returns the rendered XML
    /// output followed by a `[N trees]` summary line, exactly as the
    /// server serialized it.
    pub fn query(&mut self, query: &str, mode: Mode) -> Result<String> {
        let mut body = Vec::with_capacity(query.len() + 1);
        body.push(mode as u8);
        body.extend_from_slice(query.as_bytes());
        self.call_text(Opcode::Query, &body)
    }

    /// `EXPLAIN ANALYZE`: execute on the physical pipeline and return the
    /// plan / rule-trace / per-operator-metrics report.
    pub fn explain(&mut self, query: &str, mode: Mode) -> Result<String> {
        let mut body = Vec::with_capacity(query.len() + 1);
        body.push(mode as u8);
        body.extend_from_slice(query.as_bytes());
        self.call_text(Opcode::Explain, &body)
    }

    /// Insert a document; returns its id.
    pub fn insert_xml(&mut self, xml: &str) -> Result<u64> {
        self.call_u64(Opcode::Insert, xml.as_bytes())
    }

    /// Delete a document by id.
    pub fn delete(&mut self, doc: u64) -> Result<()> {
        self.call(Opcode::Delete, &doc.to_le_bytes())?;
        Ok(())
    }

    /// Atomically replace a document; returns the replacement's id.
    pub fn replace_xml(&mut self, doc: u64, xml: &str) -> Result<u64> {
        let mut body = Vec::with_capacity(xml.len() + 8);
        body.extend_from_slice(&doc.to_le_bytes());
        body.extend_from_slice(xml.as_bytes());
        self.call_u64(Opcode::Replace, &body)
    }

    /// Truncate the write-ahead log to a fresh checkpoint.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.call(Opcode::Checkpoint, &[])?;
        Ok(())
    }

    /// Human-readable server statistics.
    pub fn stats(&mut self) -> Result<String> {
        self.call_text(Opcode::Stats, &[])
    }

    /// Pin this session to the store's current committed state; returns
    /// the pinned commit epoch. Queries on this connection keep
    /// answering from that state until [`Client::release`].
    pub fn snapshot(&mut self) -> Result<u64> {
        self.call_u64(Opcode::Snapshot, &[])
    }

    /// Drop the session's pinned snapshot: subsequent queries see the
    /// latest committed state again.
    pub fn release(&mut self) -> Result<()> {
        self.call(Opcode::Release, &[])?;
        Ok(())
    }

    /// The visible documents as `(doc_id, node_count)` pairs, in
    /// insertion order — from the session snapshot when one is pinned.
    pub fn docs(&mut self) -> Result<Vec<(u64, u32)>> {
        let payload = self.call(Opcode::Docs, &[])?;
        if payload.len() % 12 != 0 {
            return Err(ClientError::Protocol("docs payload not 12-byte records"));
        }
        Ok(payload
            .chunks_exact(12)
            .map(|c| {
                let id = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                let nodes = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
                (id, nodes)
            })
            .collect())
    }
}

/// Read one length-prefixed frame from any reader — re-exported for the
/// server, which shares this module as the single protocol definition.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    proto::read_frame(r)
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    proto::write_frame(w, payload)
}
