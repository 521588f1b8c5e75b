//! A minimal HTTP/1.1 server-side codec: parse one request from a stream,
//! write one response, close.  One request per connection keeps the
//! concurrency story trivial (no keep-alive pipelining state) — clients
//! that care about latency amortize elsewhere, and the thread pool absorbs
//! the connection churn.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A parsed HTTP request: method, path, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, query string stripped.
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Largest accepted request body; bigger requests are rejected rather than
/// buffered (a statement that big is not a query, it is a mistake).
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Longest accepted request line or header line, line terminator included.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Read and parse one request from any reader (a socket, or bytes in
/// memory), buffering it internally.  `Err` means the connection is unusable
/// (malformed request line, a line over [`MAX_LINE_BYTES`], more than
/// [`MAX_HEADERS`] headers, end of input before the blank line, oversized
/// body, IO error) and should just be dropped after a `400`.
pub fn read_request(stream: impl Read) -> io::Result<Request> {
    let reader = &mut BufReader::new(stream);
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(invalid("malformed request line")),
    };
    let path = target
        .split_once('?')
        .map(|(p, _)| p.to_string())
        .unwrap_or(target);

    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let line = read_line(reader)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("request body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

/// Read one line of at most [`MAX_LINE_BYTES`], terminator included.  A
/// longer line, or end of input before the terminator, is an error.
fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut line)?;
    match line.last() {
        Some(b'\n') => String::from_utf8(line).map_err(|_| invalid("request line is not UTF-8")),
        _ if line.len() == MAX_LINE_BYTES => Err(invalid("request line too long")),
        _ => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "end of input inside the request head",
        )),
    }
}

/// Write one `application/json` response and flush.  `Connection: close`
/// matches the one-request-per-connection policy.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        _ => "Internal Server Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn parse(request: &[u8]) -> io::Result<Request> {
        read_request(request)
    }

    #[test]
    fn parses_a_request_from_any_reader() {
        let request =
            parse(b"POST /query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/query");
        assert_eq!(request.body, "body");
        let request = parse(b"GET /healthz HTTP/1.1\n\n").unwrap();
        assert_eq!(
            (request.method.as_str(), request.body.as_str()),
            ("GET", "")
        );
    }

    #[test]
    fn over_long_lines_are_rejected() {
        let long = "x".repeat(MAX_LINE_BYTES);
        let err = parse(format!("GET /{long} HTTP/1.1\r\n\r\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err =
            parse(format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // a line of exactly the limit, terminator included, is accepted
        let header = format!("X: {}\r\n", "y".repeat(MAX_LINE_BYTES - 5));
        assert_eq!(header.len(), MAX_LINE_BYTES);
        assert!(parse(format!("GET / HTTP/1.1\r\n{header}\r\n").as_bytes()).is_ok());
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let head = |n: usize| {
            let headers: String = (0..n).map(|i| format!("X-{i}: v\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{headers}\r\n")
        };
        assert!(parse(head(MAX_HEADERS).as_bytes()).is_ok());
        let err = parse(head(MAX_HEADERS + 1).as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn end_of_input_inside_the_head_is_an_error() {
        for truncated in [
            &b""[..],
            b"GET / HTTP/1.1",
            b"GET / HTTP/1.1\r\nHost: h\r\n",
            b"GET / HTTP/1.1\r\nHost: h",
        ] {
            let err = parse(truncated).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        }
        // and inside the body
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn parses_a_posted_body_and_writes_a_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let body = r#"{"db":"d"}"#;
            let request = format!(
                "POST /query?trace=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
            stream.write_all(request.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        });
        let (mut stream, _) = listener.accept().unwrap();
        let request = read_request(&mut stream).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/query");
        assert_eq!(request.body, r#"{"db":"d"}"#);
        write_response(&mut stream, 200, r#"{"ok":true}"#).unwrap();
        drop(stream);
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with(r#"{"ok":true}"#), "{response}");
    }
}
