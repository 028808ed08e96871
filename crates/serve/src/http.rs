//! Minimal HTTP/1.1 message handling over blocking streams.
//!
//! Just enough of RFC 9112 for the carve service: one request per
//! connection (`Connection: close` on every response), request-line +
//! headers + optional `Content-Length` body, and
//! `application/x-www-form-urlencoded` / query-string decoding. No
//! chunked request bodies (a `Transfer-Encoding` request header is
//! refused), no keep-alive, no TLS — and no dependencies.

use std::io::{self, BufRead, BufReader, Read, Write};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default cap on the request body; [`read_request_limited`] lets the
/// server lower or raise it per deployment (`ServeConfig::max_body_bytes`).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path component of the target, e.g. `/carve`.
    pub path: String,
    /// Raw query string (without `?`), empty when absent.
    pub query: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Errors produced while reading a request. [`ParseError::status`]
/// maps each to the response code the server should send.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed the connection before sending a request line.
    ConnectionClosed,
    /// The bytes on the wire are not a well-formed request.
    Malformed(String),
    /// The head or body exceeded the configured limits.
    TooLarge,
    /// The underlying stream failed.
    Io(io::Error),
}

impl ParseError {
    /// The HTTP status code this error should be answered with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::ConnectionClosed | ParseError::Io(_) => 400,
            ParseError::Malformed(_) => 400,
            ParseError::TooLarge => 413,
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(err: io::Error) -> Self {
        ParseError::Io(err)
    }
}

/// Read and parse one request from a blocking stream, with the default
/// body cap ([`MAX_BODY_BYTES`]).
pub fn read_request<S: Read>(stream: S) -> Result<Request, ParseError> {
    read_request_limited(stream, MAX_BODY_BYTES)
}

/// Read and parse one request, rejecting bodies over `max_body_bytes`
/// with [`ParseError::TooLarge`] (mapped to `413`).
pub fn read_request_limited<S: Read>(
    stream: S,
    max_body_bytes: usize,
) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(stream);

    let mut consumed = 0usize;
    let Some(request_line) = read_head_line(&mut reader, &mut consumed)? else {
        return Err(ParseError::ConnectionClosed);
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_head_line(&mut reader, &mut consumed)?
            .ok_or_else(|| ParseError::Malformed("head ended before its blank line".into()))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("bad header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut declared = None;
    for (name, value) in &headers {
        match name.as_str() {
            "content-length" => {
                // Digits only: `usize::from_str` would take `+5`.
                let length = value
                    .parse::<usize>()
                    .ok()
                    .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                    .ok_or_else(|| ParseError::Malformed(format!("bad content-length `{value}`")))?;
                if declared.is_some_and(|earlier| earlier != length) {
                    return Err(ParseError::Malformed("conflicting content-length headers".into()));
                }
                declared = Some(length);
            }
            // No request coding is implemented; ignoring the header
            // would read a chunked body as empty.
            "transfer-encoding" => {
                return Err(ParseError::Malformed(format!("unsupported transfer-encoding `{value}`")));
            }
            _ => {}
        }
    }
    let content_length = declared.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(ParseError::TooLarge);
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Read one CRLF- (or LF-) terminated head line, enforcing the head
/// size cap across calls via `consumed`. `consumed` counts every wire
/// byte, including the CR/LF terminators stripped from returned lines.
/// `None` means the stream ended where the line would have begun.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    consumed: &mut usize,
) -> Result<Option<String>, ParseError> {
    let mut line = String::new();
    let n = reader
        .take((MAX_HEAD_BYTES - (*consumed).min(MAX_HEAD_BYTES)) as u64)
        .read_line(&mut line)?;
    *consumed += n;
    if !line.ends_with('\n') {
        // No terminator: `take` ran dry — mid-line, or exactly at a line
        // boundary, where `take(0)` reads nothing and must not
        // masquerade as a closed connection — or the peer stopped.
        return if *consumed >= MAX_HEAD_BYTES {
            Err(ParseError::TooLarge)
        } else if n == 0 {
            Ok(None)
        } else {
            Err(ParseError::Malformed("head cut off mid-line".into()))
        };
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// The body of a [`Response`]: either a single buffer sent with
/// `Content-Length`, or a sequence of chunks sent with
/// `Transfer-Encoding: chunked` (used by `/watch`, whose delta frames
/// are naturally incremental).
#[derive(Debug, Clone)]
enum Payload {
    /// One contiguous body, framed by `Content-Length`.
    Full(Vec<u8>),
    /// Chunked transfer encoding; each element becomes one chunk.
    Chunked(Vec<Vec<u8>>),
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    payload: Payload,
}

impl Response {
    /// Start a response with the given status code.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            payload: Payload::Full(Vec::new()),
        }
    }

    /// A `text/plain` response with the given body.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(status)
            .header("Content-Type", "text/plain; charset=utf-8")
            .body(body.into().into_bytes())
    }

    /// An `application/jsonlines` response with the given body.
    pub fn json_lines(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status)
            .header("Content-Type", "application/jsonlines; charset=utf-8")
            .body(body.into())
    }

    /// Add a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Set the body (switches the response back to `Content-Length`
    /// framing if chunks had been set).
    pub fn body(mut self, body: Vec<u8>) -> Self {
        self.payload = Payload::Full(body);
        self
    }

    /// Send the body as `Transfer-Encoding: chunked`, one wire chunk
    /// per element. Empty elements are skipped at write time — an
    /// empty chunk is the terminator in chunked framing, so emitting
    /// one mid-stream would truncate the body at the receiver.
    pub fn chunked(mut self, chunks: Vec<Vec<u8>>) -> Self {
        self.payload = Payload::Chunked(chunks);
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serialize onto the wire. Framing (`Content-Length` or
    /// `Transfer-Encoding: chunked`) and `Connection: close` are always
    /// appended.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_reason(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        match &self.payload {
            Payload::Full(body) => {
                head.push_str(&format!("Content-Length: {}\r\n", body.len()));
                head.push_str("Connection: close\r\n\r\n");
                w.write_all(head.as_bytes())?;
                w.write_all(body)?;
            }
            Payload::Chunked(chunks) => {
                head.push_str("Transfer-Encoding: chunked\r\n");
                head.push_str("Connection: close\r\n\r\n");
                w.write_all(head.as_bytes())?;
                for chunk in chunks {
                    if chunk.is_empty() {
                        continue;
                    }
                    w.write_all(format!("{:x}\r\n", chunk.len()).as_bytes())?;
                    w.write_all(chunk)?;
                    w.write_all(b"\r\n")?;
                }
                w.write_all(b"0\r\n\r\n")?;
            }
        }
        w.flush()
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Decode `application/x-www-form-urlencoded` (also query strings):
/// `&`-separated `key=value` pairs with `+` as space and `%XX` escapes.
/// Pairs with empty keys are dropped; a key without `=` gets an empty
/// value.
pub fn parse_form(input: &str) -> Vec<(String, String)> {
    input
        .split('&')
        .filter(|part| !part.is_empty())
        .filter_map(|part| {
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            let key = percent_decode(key);
            if key.is_empty() {
                None
            } else {
                Some((key, percent_decode(value)))
            }
        })
        .collect()
}

/// Decode `%XX` escapes and `+`-as-space. Invalid escapes are passed
/// through literally; bytes are reassembled as (lossy) UTF-8.
///
/// Works on raw bytes throughout — slicing the `&str` at `%`+2 would
/// panic on a multibyte UTF-8 character straddling the slice boundary,
/// and byte-wise hex classification also rejects the `+f`/` f` forms
/// `from_str_radix` would accept.
fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (bytes.get(i + 1), bytes.get(i + 2)) {
                (Some(&hi), Some(&lo)) if hi.is_ascii_hexdigit() && lo.is_ascii_hexdigit() => {
                    out.push(hex_value(hi) << 4 | hex_value(lo));
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Value of an ASCII hex digit (caller guarantees `is_ascii_hexdigit`).
fn hex_value(digit: u8) -> u8 {
    match digit {
        b'0'..=b'9' => digit - b'0',
        b'a'..=b'f' => digit - b'a' + 10,
        _ => digit - b'A' + 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_with_query() {
        let raw = b"GET /datasets/nc1?seed=7&page=2 HTTP/1.1\r\nHost: localhost\r\nX-Test: yes\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/datasets/nc1");
        assert_eq!(req.query, "seed=7&page=2");
        assert_eq!(req.header("x-test"), Some("yes"));
        assert_eq!(req.header("X-Test"), Some("yes"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /carve HTTP/1.1\r\nContent-Length: 9\r\n\r\npreset=nc2";
        // Content-Length 9 truncates the 10-byte body on purpose.
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"preset=nc");
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let raw = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_request(&b"NOT-HTTP\r\n\r\n"[..]),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&b"GET / SPDY/3\r\n\r\n"[..]),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&b""[..]),
            Err(ParseError::ConnectionClosed)
        ));
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        assert!(matches!(
            read_request(huge.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn a_head_cut_off_under_the_cap_is_malformed_not_too_large() {
        for raw in [&b"GET / HTTP/1.1"[..], b"GET / HTTP/1.1\r\nHost: x", b"GET / HTTP/1.1\r\nHost: x\r\n"] {
            let err = read_request(raw).unwrap_err();
            assert!(matches!(err, ParseError::Malformed(_)), "{err:?}");
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn rejects_a_signed_content_length() {
        for value in ["+5", "-0", " 5 5", "0x5", ""] {
            let raw = format!("POST /carve HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            let err = read_request(raw.as_bytes()).unwrap_err();
            assert!(matches!(err, ParseError::Malformed(_)), "{value:?}: {err:?}");
        }
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let raw = b"POST /carve HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(read_request(&raw[..]), Err(ParseError::Malformed(_))));
        // A repeated header that agrees with itself is one declaration.
        let raw = b"POST /carve HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(read_request(&raw[..]).unwrap().body, b"hello");
    }

    #[test]
    fn rejects_transfer_encoding_on_a_request() {
        let raw = b"POST /carve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        let err = read_request(&raw[..]).unwrap_err();
        assert!(matches!(err, ParseError::Malformed(_)), "{err:?}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST /carve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn body_cap_is_configurable() {
        let raw = b"POST /carve HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"a\": 42 }";
        assert!(read_request_limited(&raw[..], 10).is_ok());
        assert!(matches!(
            read_request_limited(&raw[..], 9),
            Err(ParseError::TooLarge)
        ));
        // The default entry point keeps the 1 MiB cap.
        assert!(read_request(&raw[..]).is_ok());
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::text(200, "ok")
            .header("X-Version", "3")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("X-Version: 3\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
    }

    #[test]
    fn chunked_wire_format() {
        let mut out = Vec::new();
        Response::new(200)
            .header("Content-Type", "application/jsonlines; charset=utf-8")
            .chunked(vec![
                b"{\"a\":1}\n".to_vec(),
                Vec::new(), // empty chunks are skipped, not emitted
                b"{\"b\":22}\n".to_vec(),
            ])
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        // Hex chunk sizes frame each body piece; the stream ends with
        // the zero-length terminator chunk.
        assert!(text.contains("\r\n\r\n8\r\n{\"a\":1}\n\r\n9\r\n{\"b\":22}\n\r\n0\r\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    #[test]
    fn gone_status_has_a_reason() {
        assert_eq!(status_reason(410), "Gone");
    }

    #[test]
    fn form_decoding() {
        let pairs = parse_form("preset=nc1&name=O%27BRIEN+JR&flag&=dropped&pct=%ZZ");
        assert_eq!(
            pairs,
            vec![
                ("preset".to_string(), "nc1".to_string()),
                ("name".to_string(), "O'BRIEN JR".to_string()),
                ("flag".to_string(), String::new()),
                ("pct".to_string(), "%ZZ".to_string()),
            ]
        );
        assert!(parse_form("").is_empty());
    }

    #[test]
    fn percent_decode_survives_multibyte_after_percent() {
        // A multibyte char right after `%` must not panic (str slicing
        // at fixed byte offsets would split the char mid-sequence).
        assert_eq!(parse_form("a=%€x"), vec![("a".into(), "%€x".into())]);
        assert_eq!(parse_form("a=%é"), vec![("a".into(), "%é".into())]);
        assert_eq!(parse_form("a=€%20€"), vec![("a".into(), "€ €".into())]);
        // Trailing escapes, complete and truncated.
        assert_eq!(parse_form("a=%2F"), vec![("a".into(), "/".into())]);
        assert_eq!(parse_form("a=%2"), vec![("a".into(), "%2".into())]);
        assert_eq!(parse_form("a=%"), vec![("a".into(), "%".into())]);
    }

    #[test]
    fn percent_decode_rejects_signed_and_spaced_hex() {
        // `from_str_radix` would accept "+f" as 0x0F; byte-wise hex
        // classification must not.
        assert_eq!(parse_form("a=%+fx"), vec![("a".into(), "% fx".into())]);
        assert_eq!(parse_form("a=%-1x"), vec![("a".into(), "%-1x".into())]);
        // Mixed-case hex still decodes (0x4F = 'O').
        assert_eq!(parse_form("a=%4f%4F"), vec![("a".into(), "OO".into())]);
    }

    #[test]
    fn head_cap_at_line_boundary_is_too_large() {
        // Fill the head cap exactly with complete header lines; the
        // head is unterminated, so this must be TooLarge — not a
        // silently truncated header set.
        let request_line = "GET / HTTP/1.1\r\n";
        let mut raw = String::from(request_line);
        let filler = "x-filler: yyyyyyyyyyyyyyyy\r\n";
        while raw.len() + filler.len() <= MAX_HEAD_BYTES {
            raw.push_str(filler);
        }
        let pad = MAX_HEAD_BYTES - raw.len();
        if pad > 0 {
            // One last line sized to land exactly on the cap.
            raw.push_str(&format!("x-pad: {}\r\n", "z".repeat(pad.saturating_sub(9))));
        }
        assert_eq!(raw.len(), MAX_HEAD_BYTES);
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }
}
