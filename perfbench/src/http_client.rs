//! A minimal keep-alive HTTP/1.1 client for the loopback server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A parsed response: status, cache disposition, body.
pub struct Reply {
    pub status: u16,
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

/// One persistent connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// The full request bytes (built outside any timed region).
pub fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn bad(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request and reads its response.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("status line {line:?}")))?;
        let mut length = 0usize;
        let mut cache = None;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header)?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .parse()
                        .map_err(|_| bad(format!("content length {value:?}")))?;
                } else if name.eq_ignore_ascii_case(redeval_server::CACHE_HEADER) {
                    cache = Some(value.to_string());
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            cache,
            body,
        })
    }
}
