//! A minimal blocking HTTP/1.1 client: one keep-alive connection,
//! requests written whole, responses framed by `Content-Length`.
//!
//! Request bytes are built once, ahead of the timed loop
//! ([`request_bytes`]), and the response body lands in a buffer the
//! connection reuses, so a timed request costs the generator one
//! `write`, a few `read`s and no allocation.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No request of any workload takes a second; a reply that has not
/// arrived after this long is a failed operation, not a slow one.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// The wire bytes of one request.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: d3l\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read from the socket and not yet consumed.
    buf: Vec<u8>,
    /// The last response's body.
    body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            body: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send prebuilt request bytes and read the whole response.
    /// Returns the status; the body is in [`Conn::body`] until the
    /// next call. Any status is `Ok` here — callers count non-2xx as
    /// failed operations.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<u16> {
        self.stream.write_all(wire)?;
        self.read_response()
    }

    /// Build and send a request in one go (untimed paths).
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<u16> {
        self.send(&request_bytes(method, path, body))
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }

    fn read_response(&mut self) -> io::Result<u16> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(bad("response head exceeds 64 KiB"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.get(..3))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| bad("bad Content-Length"))?,
                    );
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.body.clear();
        self.body
            .extend_from_slice(&self.buf[head_end..head_end + length]);
        self.buf.drain(..head_end + length);
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A scripted server: for every request on one accepted connection
    /// it checks the framing and answers with the next canned reply,
    /// split into the given chunk sizes.
    fn serve(
        replies: Vec<(&'static str, Vec<usize>)>,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut seen = Vec::new();
            for (reply, chunks) in replies {
                let mut request_line = String::new();
                reader.read_line(&mut request_line).unwrap();
                let mut length = 0usize;
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).unwrap();
                    if h == "\r\n" {
                        break;
                    }
                    if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                seen.push(format!(
                    "{}|{}",
                    request_line.trim_end(),
                    String::from_utf8(body).unwrap()
                ));
                let bytes = reply.as_bytes();
                let mut at = 0;
                for c in chunks {
                    writer.write_all(&bytes[at..at + c]).unwrap();
                    writer.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                    at += c;
                }
                writer.write_all(&bytes[at..]).unwrap();
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_and_content_length_framing() {
        let (addr, server) = serve(vec![
            // Head and body split across writes, body split again.
            (
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 11\r\n\r\nhello world",
                vec![20, 50, 4],
            ),
            // Two replies may share a read: the second is whole.
            ("HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok", vec![]),
            // Non-2xx is a status, not an I/O error; an empty body is a body.
            ("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", vec![]),
        ]);
        let mut conn = Conn::connect(addr).unwrap();
        assert_eq!(conn.request("POST", "/query", b"{\"k\":1}").unwrap(), 200);
        assert_eq!(conn.body(), b"hello world");
        assert_eq!(conn.request("POST", "/tables", b"x").unwrap(), 201);
        assert_eq!(conn.body(), b"ok");
        assert_eq!(conn.request("GET", "/stats", b"").unwrap(), 503);
        assert_eq!(conn.body(), b"");
        let seen = server.join().unwrap();
        assert_eq!(
            seen,
            vec![
                "POST /query HTTP/1.1|{\"k\":1}",
                "POST /tables HTTP/1.1|x",
                "GET /stats HTTP/1.1|"
            ]
        );
    }

    #[test]
    fn a_reply_cut_short_is_an_error() {
        let (addr, server) = serve(vec![(
            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
            vec![],
        )]);
        let mut conn = Conn::connect(addr).unwrap();
        let err = conn.request("GET", "/stats", b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        server.join().unwrap();
    }

    #[test]
    fn malformed_heads_are_errors() {
        for reply in [
            "HTTP/1.1 200 OK\r\n\r\n",
            "garbage\r\nContent-Length: 0\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n",
        ] {
            let (addr, server) = serve(vec![(reply, vec![])]);
            let mut conn = Conn::connect(addr).unwrap();
            let err = conn.request("GET", "/stats", b"").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reply:?}");
            server.join().unwrap();
        }
    }
}
