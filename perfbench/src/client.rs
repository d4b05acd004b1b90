//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! It sends one request at a time on a connection and reads the whole
//! response. A response carrying `Connection: close` (the server's
//! `max_requests_per_conn` budget, 1000 by default) ends the connection
//! cleanly: the next request opens a new one, which is counted as a
//! reconnect, not a failure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use uadb_linalg::Matrix;

/// How long a request may wait on the socket before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Largest response head the client accepts.
const MAX_HEAD: usize = 16 * 1024;

/// A complete response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server asked to close the connection after this response.
    pub close: bool,
}

/// One client connection, reopened on demand.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    filled: usize,
    opened: u64,
}

impl Conn {
    /// A connection to `addr`; the socket opens on the first request.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, buf: vec![0; 64 * 1024], filled: 0, opened: 0 }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.opened.saturating_sub(1)
    }

    /// Sends a serialized request and reads its response. Any error, and
    /// any response that asks to close, drops the socket.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        let result = self.exchange(request);
        if !matches!(&result, Ok(r) if !r.close) {
            self.stream = None;
            self.filled = 0;
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(s);
            self.filled = 0;
            self.opened += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;

        let head_end = loop {
            if let Some(i) = find(&self.buf[..self.filled], b"\r\n\r\n") {
                break i + 4;
            }
            if self.filled >= MAX_HEAD {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "response head too long"));
            }
            fill(stream, &mut self.buf, &mut self.filled)?;
        };
        let head = parse_head(&self.buf[..head_end])?;
        let total = head_end + head.content_length;
        while self.filled < total {
            fill(stream, &mut self.buf, &mut self.filled)?;
        }
        let body = self.buf[head_end..total].to_vec();
        self.buf.copy_within(total..self.filled, 0);
        self.filled -= total;
        Ok(Response { status: head.status, body, close: head.close })
    }
}

/// Reads more bytes into `buf[filled..]`, growing it when full.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>, filled: &mut usize) -> io::Result<()> {
    if *filled == buf.len() {
        buf.resize(buf.len() * 2, 0);
    }
    match stream.read(&mut buf[*filled..])? {
        0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-response")),
        n => {
            *filled += n;
            Ok(())
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

struct Head {
    status: u16,
    content_length: usize,
    close: bool,
}

fn parse_head(head: &[u8]) -> io::Result<Head> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(head).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok(Head { status, content_length, close })
}

/// A serialized `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// A serialized `POST` request with a body.
pub fn post(path: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// The `application/x-uadb-rows` f64 payload for a batch.
pub fn binary_body(batch: &Matrix) -> Vec<u8> {
    let rows = u32::try_from(batch.rows()).expect("batch rows fit the u32 header field");
    let cols = u32::try_from(batch.cols()).expect("batch cols fit the u32 header field");
    let mut body = Vec::with_capacity(16 + batch.as_slice().len() * 8);
    body.extend_from_slice(b"UROW");
    body.extend_from_slice(&[1, 2, 0, 0]);
    body.extend_from_slice(&rows.to_le_bytes());
    body.extend_from_slice(&cols.to_le_bytes());
    for v in batch.as_slice() {
        body.extend_from_slice(&v.to_le_bytes());
    }
    body
}

/// The `{"rows": [[…], …]}` JSON payload for a batch. Rust's `{:?}` float
/// formatting is the shortest text that parses back to the same bits.
pub fn json_body(batch: &Matrix) -> Vec<u8> {
    let mut s = String::from("{\"rows\":[");
    for r in 0..batch.rows() {
        if r > 0 {
            s.push(',');
        }
        s.push('[');
        for (c, v) in batch.row(r).iter().enumerate() {
            if c > 0 {
                s.push(',');
            }
            s.push_str(&format!("{v:?}"));
        }
        s.push(']');
    }
    s.push_str("]}");
    s.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_reads_status_length_and_close() {
        let h = parse_head(b"HTTP/1.1 200 OK\r\ncontent-length: 12\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert_eq!((h.status, h.content_length, h.close), (200, 12, true));
        let h = parse_head(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!((h.status, h.content_length, h.close), (404, 0, false));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn payloads_round_trip_bits() {
        let m = Matrix::from_vec(2, 2, vec![0.1, -2.5e-300, 1.0 / 3.0, 7.0]).unwrap();
        let b = binary_body(&m);
        assert_eq!(&b[..8], b"UROW\x01\x02\x00\x00");
        assert_eq!(b.len(), 16 + 4 * 8);
        let j = String::from_utf8(json_body(&m)).unwrap();
        let nums: Vec<f64> = j
            .trim_start_matches("{\"rows\":")
            .trim_end_matches('}')
            .split(['[', ']', ','])
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        let bits: Vec<u64> = nums.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = m.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
    }
}
