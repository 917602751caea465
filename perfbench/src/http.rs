//! A minimal blocking HTTP/1.1 client: one request per connection, the
//! shape the server speaks.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side socket timeout; the server's own deadlines are shorter.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The trace id from the `traceparent` response header, when traced.
    pub trace_id: Option<String>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the whole response.
///
/// # Errors
/// Connection, timeout, or framing failures, as text.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .map_err(|e| format!("timeouts: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        // A reset after a complete head still delivered the response.
        if find(&raw, b"\r\n\r\n").is_none() {
            return Err(format!("receive: {e}"));
        }
    }
    parse(&raw)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Splits a raw response into status, trace id and body.
fn parse(raw: &[u8]) -> Result<Reply, String> {
    let end = find(raw, b"\r\n\r\n").ok_or("response without a complete head")?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let trace_id = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("traceparent"))
        .and_then(|(_, v)| v.trim().split('-').nth(1).map(str::to_string));
    Ok(Reply {
        status,
        trace_id,
        body: raw[end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_traceparent_and_body() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\ntraceparent: 00-abc123-def-01\r\n\r\nok";
        let r = parse(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.trace_id.as_deref(), Some("abc123"));
        assert_eq!(r.body, b"ok");
        assert!(parse(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
