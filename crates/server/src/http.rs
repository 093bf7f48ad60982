//! Minimal HTTP/1.1: a hardened request parser and a response writer.
//!
//! The parser reads from untrusted sockets, so every dimension of a
//! request is bounded — request-line length, header count, cumulative
//! header bytes, body size — and every violation maps to a *typed*
//! error that renders as a specific 4xx/5xx status. A body is framed
//! by `Content-Length` alone: differing repeated values are a 400 and
//! any `Transfer-Encoding` a 501 (RFC 9112 §6.3, §6.1), both refused
//! before a body byte is read, so no guess about where a body ends can
//! make its bytes parse as the next pipelined request. Nothing in this
//! module panics on wire input, and nothing reads without the
//! caller-supplied socket timeout, so a stalled or malicious client
//! can never park a worker thread forever.

use std::io::{BufRead, Write};

/// Longest accepted request line (method + URI + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 100;
/// Default cap on request bodies (the server config can lower it).
pub const DEFAULT_MAX_BODY: usize = 16 * 1024 * 1024;

/// Request methods the API surface uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
}

impl Method {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Percent-decoded path (no query string).
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Client-supplied `X-Request-Id`, sanitized (see
    /// [`sanitize_request_id`]) so echoing it back can never inject
    /// header bytes. `None` when absent or unusable — the server
    /// generates one.
    pub request_id: Option<String>,
}

impl Request {
    /// Last query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything that can go wrong while reading one request. Variants
/// that carry an HTTP status render as that status; `Closed` and
/// `Io` terminate the connection silently (there is nobody left to
/// answer).
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first byte of a request — the keep-alive
    /// peer hung up, which is not an error.
    Closed,
    /// The socket timed out mid-request (408) — the client started a
    /// request and stalled.
    Timeout,
    /// The connection broke mid-request.
    Io(std::io::Error),
    /// The request line is not `METHOD SP PATH SP HTTP/1.x` (400).
    BadRequestLine(String),
    /// The request line exceeds [`MAX_REQUEST_LINE`] (414).
    UriTooLong,
    /// A method this API does not use (405).
    UnsupportedMethod(String),
    /// An HTTP version other than 1.0/1.1 (505).
    UnsupportedVersion(String),
    /// A header line without a colon, or a non-UTF-8 header (400).
    BadHeader,
    /// A single header line exceeds [`MAX_HEADER_LINE`], or the
    /// request carries more than [`MAX_HEADERS`] headers (431).
    HeadersTooLarge,
    /// `Content-Length` is present but not a decimal number (400).
    BadContentLength,
    /// Two `Content-Length` headers disagree (400, RFC 9112 §6.3):
    /// which one frames the body is ambiguous, so neither does.
    ConflictingContentLength {
        /// The value seen first.
        first: usize,
        /// The value that differs from it.
        then: usize,
    },
    /// A `Transfer-Encoding` header (501, RFC 9112 §6.1): this server
    /// implements no transfer coding, so it cannot find where such a
    /// body ends.
    UnsupportedTransferEncoding(String),
    /// A body-carrying method arrived without `Content-Length` (411).
    LengthRequired,
    /// The declared body exceeds the configured cap (413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
    /// The connection ended before `Content-Length` bytes arrived
    /// (400).
    TruncatedBody {
        /// Declared `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Timeout => write!(f, "timed out mid-request"),
            HttpError::Io(e) => write!(f, "connection error: {e}"),
            HttpError::BadRequestLine(line) => write!(f, "malformed request line {line:?}"),
            HttpError::UriTooLong => write!(f, "request line longer than {MAX_REQUEST_LINE} bytes"),
            HttpError::UnsupportedMethod(m) => write!(f, "method {m:?} not supported"),
            HttpError::UnsupportedVersion(v) => write!(f, "HTTP version {v:?} not supported"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::HeadersTooLarge => write!(
                f,
                "headers exceed {MAX_HEADERS} lines or {MAX_HEADER_LINE} bytes per line"
            ),
            HttpError::BadContentLength => write!(f, "Content-Length is not a number"),
            HttpError::ConflictingContentLength { first, then } => {
                write!(f, "differing Content-Length values {first} and {then}")
            }
            HttpError::UnsupportedTransferEncoding(coding) => {
                write!(f, "Transfer-Encoding {coding:?} not implemented")
            }
            HttpError::LengthRequired => write!(f, "Content-Length required"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::TruncatedBody { expected, got } => {
                write!(
                    f,
                    "body truncated: Content-Length {expected}, received {got}"
                )
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The HTTP status this error answers with, or `None` when the
    /// connection is beyond answering (peer gone).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Closed | HttpError::Io(_) => None,
            HttpError::Timeout => Some(408),
            HttpError::BadRequestLine(_)
            | HttpError::BadHeader
            | HttpError::BadContentLength
            | HttpError::ConflictingContentLength { .. }
            | HttpError::TruncatedBody { .. } => Some(400),
            HttpError::UnsupportedTransferEncoding(_) => Some(501),
            HttpError::UriTooLong => Some(414),
            HttpError::UnsupportedMethod(_) => Some(405),
            HttpError::UnsupportedVersion(_) => Some(505),
            HttpError::HeadersTooLarge => Some(431),
            HttpError::LengthRequired => Some(411),
            HttpError::BodyTooLarge { .. } => Some(413),
        }
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Read one `\n`-terminated line of at most `max` bytes (CR stripped).
/// `Ok(None)` is clean EOF before the first byte; EOF mid-line is a
/// truncation-style bad request. With `idle_is_close`, a timeout
/// before the first byte reads as [`HttpError::Closed`] — an idle
/// keep-alive connection expiring is not a protocol violation, while
/// a timeout after bytes arrived is a stalled client (408).
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    max: usize,
    idle_is_close: bool,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut line = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) => {
                return Err(match io_error(e) {
                    HttpError::Timeout if idle_is_close && line.is_empty() => HttpError::Closed,
                    other => other,
                })
            }
        };
        if available.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::BadRequestLine(
                    "connection ended mid-line".to_string(),
                ))
            };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(available.len());
        if line.len() + take > max + 1 {
            // Consume what we looked at so a later request on the
            // same connection does not re-parse it; the caller closes
            // the connection on this error anyway.
            reader.consume(take);
            return Err(HttpError::UriTooLong);
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            line.pop(); // \n
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
    }
}

/// Restrict a client-supplied request id to a safe alphabet
/// (`[A-Za-z0-9._:-]`, at most 64 chars) so it can be echoed into a
/// response header and into logs verbatim. Returns `None` when
/// nothing usable remains.
pub fn sanitize_request_id(raw: &str) -> Option<String> {
    let cleaned: String = raw
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
        .take(64)
        .collect();
    if cleaned.is_empty() {
        None
    } else {
        Some(cleaned)
    }
}

/// Percent-decode a URI component. `plus_is_space` applies the query
/// convention.
fn percent_decode(raw: &str, plus_is_space: bool) -> Option<String> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
                let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Read and validate one request from `reader`. `max_body` caps the
/// accepted `Content-Length`.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let line = match read_line_limited(reader, MAX_REQUEST_LINE, true)? {
        None => return Err(HttpError::Closed),
        Some(line) => line,
    };
    let line = String::from_utf8(line)
        .map_err(|_| HttpError::BadRequestLine("request line is not UTF-8".to_string()))?;

    let mut parts = line.split(' ');
    let (method_raw, uri, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(u), Some(v), None) if !m.is_empty() && !u.is_empty() => (m, u, v),
        _ => return Err(HttpError::BadRequestLine(line.clone())),
    };
    let method = match method_raw {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "DELETE" => Method::Delete,
        other if other.chars().all(|c| c.is_ascii_uppercase()) => {
            return Err(HttpError::UnsupportedMethod(other.to_string()))
        }
        _ => return Err(HttpError::BadRequestLine(line.clone())),
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::UnsupportedVersion(other.to_string())),
    };
    if !uri.starts_with('/') {
        return Err(HttpError::BadRequestLine(line.clone()));
    }

    let (raw_path, raw_query) = match uri.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (uri, None),
    };
    let path = percent_decode(raw_path, false)
        .ok_or_else(|| HttpError::BadRequestLine("undecodable path".to_string()))?;
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k, true)
                .ok_or_else(|| HttpError::BadRequestLine("undecodable query".to_string()))?;
            let v = percent_decode(v, true)
                .ok_or_else(|| HttpError::BadRequestLine("undecodable query".to_string()))?;
            query.push((k, v));
        }
    }

    // ---- headers ---------------------------------------------------
    let mut content_length: Option<usize> = None;
    let mut keep_alive = keep_alive_default;
    let mut request_id: Option<String> = None;
    let mut header_count = 0usize;
    loop {
        let line = read_line_limited(reader, MAX_HEADER_LINE, false)
            .map_err(|e| match e {
                // An oversized header line is a header problem, not a
                // URI problem.
                HttpError::UriTooLong => HttpError::HeadersTooLarge,
                other => other,
            })?
            .ok_or(HttpError::BadHeader)?;
        if line.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge);
        }
        let line = String::from_utf8(line).map_err(|_| HttpError::BadHeader)?;
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader);
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let len = value
                .parse::<usize>()
                .map_err(|_| HttpError::BadContentLength)?;
            if let Some(first) = content_length.filter(|&first| first != len) {
                return Err(HttpError::ConflictingContentLength { first, then: len });
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::UnsupportedTransferEncoding(value.to_string()));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("x-request-id") {
            request_id = sanitize_request_id(value);
        }
    }

    // ---- body ------------------------------------------------------
    let body = match (method, content_length) {
        (Method::Post, None) => return Err(HttpError::LengthRequired),
        (_, None) | (_, Some(0)) => Vec::new(),
        (_, Some(len)) => {
            if len > max_body {
                return Err(HttpError::BodyTooLarge {
                    declared: len,
                    limit: max_body,
                });
            }
            let mut body = vec![0u8; len];
            let mut got = 0usize;
            while got < len {
                match reader.read(&mut body[got..]) {
                    Ok(0) => return Err(HttpError::TruncatedBody { expected: len, got }),
                    Ok(n) => got += n,
                    Err(e) => return Err(io_error(e)),
                }
            }
            body
        }
    };

    Ok(Request {
        method,
        path,
        query,
        body,
        keep_alive,
        request_id,
    })
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// One response — `application/json` unless a content type override
/// is set (the `/metrics` exposition is `text/plain`).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Optional `Retry-After` header value in seconds — the
    /// load-shedding contract: a 503 tells the client exactly when
    /// backing off long enough is.
    pub retry_after_secs: Option<u32>,
    /// `Content-Type` override (`None` = `application/json`).
    pub content_type: Option<&'static str>,
    /// Additional response headers (`X-Request-Id`,
    /// `X-Engine-Version`). Values must already be header-safe — the
    /// request id passes through [`sanitize_request_id`].
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            retry_after_secs: None,
            content_type: None,
            extra_headers: Vec::new(),
        }
    }

    /// A response with an explicit content type (e.g. the Prometheus
    /// text exposition).
    pub fn text(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            content_type: Some(content_type),
            ..Response::json(status, body)
        }
    }

    /// Attach one extra response header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// A typed error response: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body =
            crate::json::Json::Obj(vec![("error".to_string(), crate::json::Json::str(message))]);
        Response::json(status, body.to_string())
    }

    /// Attach a `Retry-After` header (load-shed 503s).
    pub fn with_retry_after(mut self, secs: u32) -> Response {
        self.retry_after_secs = Some(secs);
        self
    }

    /// Serialize onto the wire. `keep_alive` decides the
    /// `Connection` header (the caller closes the stream when false).
    /// Head and body go out in **one** write: interactive latency
    /// over real sockets dies by Nagle/delayed-ACK interaction when a
    /// response crosses two segments.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let retry_after = match self.retry_after_secs {
            Some(secs) => format!("Retry-After: {secs}\r\n"),
            None => String::new(),
        };
        let mut extra = String::new();
        for (name, value) in &self.extra_headers {
            extra.push_str(&format!("{name}: {value}\r\n"));
        }
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n{}{}\r\n",
            self.status,
            reason(self.status),
            self.content_type.unwrap_or("application/json"),
            self.body.len(),
            connection,
            retry_after,
            extra
        );
        let mut wire = Vec::with_capacity(head.len() + self.body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw), DEFAULT_MAX_BODY)
    }

    #[test]
    fn parses_a_get_with_query() {
        let req =
            parse(b"GET /rank_all?target=gp%20funding&width=40&flag HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/rank_all");
        assert_eq!(req.query_param("target"), Some("gp funding"));
        assert_eq!(req.query_param("width"), Some("40"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /query HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\n{\"k\"")
                .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{\"k\"");
        assert!(!req.keep_alive);
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let req = parse(b"GET /stats HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET /%zz HTTP/1.1\r\n\r\n",
            b"GET /%ff HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status(), Some(400), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn unknown_method_and_version_are_405_and_505() {
        assert_eq!(
            parse(b"PATCH /x HTTP/1.1\r\n\r\n").unwrap_err().status(),
            Some(405)
        );
        assert_eq!(
            parse(b"GET /x HTTP/2.0\r\n\r\n").unwrap_err().status(),
            Some(505)
        );
    }

    #[test]
    fn oversized_request_line_is_414() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status(), Some(414));
    }

    #[test]
    fn oversized_and_overmany_headers_are_431() {
        let raw = format!(
            "GET /x HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_LINE)
        );
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status(), Some(431));
        let raw = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status(), Some(431));
    }

    #[test]
    fn header_without_colon_is_400() {
        assert_eq!(
            parse(b"GET /x HTTP/1.1\r\nno colon here\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
    }

    #[test]
    fn body_length_contract() {
        // POST without Content-Length.
        assert_eq!(
            parse(b"POST /query HTTP/1.1\r\n\r\n").unwrap_err().status(),
            Some(411)
        );
        // Unparseable length.
        assert_eq!(
            parse(b"POST /query HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
        // Over the cap.
        let err = read_request(
            &mut BufReader::new(&b"POST /q HTTP/1.1\r\nContent-Length: 100\r\n\r\n"[..]),
            10,
        )
        .unwrap_err();
        assert_eq!(err.status(), Some(413));
        // Truncated: fewer bytes than declared.
        let err = parse(b"POST /q HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(
            matches!(
                err,
                HttpError::TruncatedBody {
                    expected: 10,
                    got: 3
                }
            ),
            "{err:?}"
        );
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn clean_eof_is_closed_not_an_error_status() {
        let err = parse(b"").unwrap_err();
        assert!(matches!(err, HttpError::Closed));
        assert_eq!(err.status(), None);
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::error(404, "nope")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("404 Not Found"));
        assert!(text.contains("Connection: close"));
        assert!(!text.contains("Retry-After"));
        assert!(text.ends_with("{\"error\":\"nope\"}"));
    }

    #[test]
    fn request_id_header_is_captured_and_sanitized() {
        let req = parse(b"GET /stats HTTP/1.1\r\nX-Request-Id: abc-123.Z:9\r\n\r\n").unwrap();
        assert_eq!(req.request_id.as_deref(), Some("abc-123.Z:9"));
        // Hostile bytes are stripped, the remainder kept.
        let req = parse(b"GET /stats HTTP/1.1\r\nx-request-id: a\tb\x01c\r\n\r\n").unwrap();
        assert_eq!(req.request_id.as_deref(), Some("abc"));
        // Nothing usable -> None (the server generates instead).
        let req = parse(b"GET /stats HTTP/1.1\r\nX-Request-Id: \"<>\r\n\r\n").unwrap();
        assert_eq!(req.request_id, None);
        let req = parse(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.request_id, None);
        // Length cap.
        let long = "x".repeat(200);
        assert_eq!(sanitize_request_id(&long).unwrap().len(), 64);
    }

    #[test]
    fn extra_headers_and_content_type_override_are_emitted() {
        let mut out = Vec::new();
        Response::text(200, "text/plain; version=0.0.4", "d3l_up 1\n")
            .with_header("X-Request-Id", "req-1".to_string())
            .with_header("X-Engine-Version", "7".to_string())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("X-Request-Id: req-1\r\n"));
        assert!(text.contains("X-Engine-Version: 7\r\n"));
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(!head.contains("\r\n\r\n"));
        assert_eq!(body, "d3l_up 1\n");
    }

    #[test]
    fn retry_after_header_is_emitted_on_shed_responses() {
        let mut out = Vec::new();
        Response::error(503, "overloaded")
            .with_retry_after(2)
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(!head.contains("\r\n\r\n"));
        assert_eq!(body, "{\"error\":\"overloaded\"}");
    }
}
