//! Minimal blocking HTTP/1.1 client for exercising the `delta serve`
//! daemon over real sockets from the bench harness.
//!
//! The daemon speaks one-request-per-connection HTTP with
//! `Connection: close` framing (docs/PROTOCOL.md), so the client is a
//! handful of lines: open a `TcpStream`, write the request, read to
//! EOF, split the header block off. Keeping it dependency-free means
//! the measurements include the same connection-setup cost a curl or
//! script client would pay.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Sends one request over a fresh connection and returns
/// `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response has no header block",
        )
    })?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    Ok((status, body.to_string()))
}

/// `POST body` to `path`; returns `(status, body)`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    request(addr, "POST", path, body)
}

/// `GET path`; returns `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    request(addr, "GET", path, "")
}
