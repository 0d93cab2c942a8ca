//! The analyst-side client: one connection that speaks every
//! [`ResponseEncoding`], built on a socket-free framing pair —
//! [`encode_request`] (after the connection's [`preamble`]) and
//! [`take_response`] — so a caller that multiplexes many connections
//! frames exactly the bytes the blocking path does.

use crate::protocol::{Request, Response};
use crate::wire::{
    self, WireError, MAX_FRAME_BYTES, WIRE_FEATURE_PACKED, WIRE_MAGIC, WIRE_VERSION,
};
use crate::ResponseEncoding;
use dpod_query::{Answer, QueryPlan};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Bytes one socket read asks for.
const READ_CHUNK: usize = 16 << 10;

/// Appends the bytes a connection opens with to select `enc`: nothing
/// for NDJSON, `"DPRB"` plus the version byte for `DPRB` (with
/// [`WIRE_FEATURE_PACKED`] set for packed answers).
pub fn preamble(enc: ResponseEncoding, out: &mut Vec<u8>) {
    let version = match enc {
        ResponseEncoding::Json => return,
        ResponseEncoding::Binary => WIRE_VERSION,
        ResponseEncoding::BinaryPacked => WIRE_VERSION | WIRE_FEATURE_PACKED,
    };
    out.extend_from_slice(WIRE_MAGIC);
    out.push(version);
}

/// Appends one request as complete socket bytes in `enc`: a JSON line
/// with its `\n`, or a `DPRB` frame with its length prefix.
///
/// # Errors
/// [`WireError`] when the request does not serialize or its frame
/// exceeds [`MAX_FRAME_BYTES`].
pub fn encode_request(
    enc: ResponseEncoding,
    req: &Request,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    match enc {
        ResponseEncoding::Json => {
            let line = serde_json::to_string(req)
                .map_err(|e| WireError(format!("cannot encode request: {e}")))?;
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            Ok(())
        }
        ResponseEncoding::Binary | ResponseEncoding::BinaryPacked => {
            wire::write_frame(out, &wire::encode_request(req))
        }
    }
}

/// Takes one complete response from the head of `buf`, returning it
/// with the number of bytes it spanned; `Ok(None)` while the response
/// is still incomplete.
///
/// # Errors
/// [`WireError`] for a response that does not decode, a declared frame
/// length beyond [`MAX_FRAME_BYTES`], or a JSON line longer than it
/// (the stream cannot be resynced after either; callers should close).
pub fn take_response(
    enc: ResponseEncoding,
    buf: &[u8],
) -> Result<Option<(Response, usize)>, WireError> {
    let cap = MAX_FRAME_BYTES as usize;
    match enc {
        ResponseEncoding::Json => {
            let Some(end) = buf.iter().take(cap + 1).position(|&b| b == b'\n') else {
                if buf.len() > cap {
                    return Err(WireError(format!(
                        "response line exceeds max {MAX_FRAME_BYTES} bytes"
                    )));
                }
                return Ok(None);
            };
            let line = std::str::from_utf8(&buf[..end])
                .map_err(|e| WireError(format!("bad response: {e}")))?;
            let resp = serde_json::from_str(line.trim())
                .map_err(|e| WireError(format!("bad response: {e}")))?;
            Ok(Some((resp, end + 1)))
        }
        ResponseEncoding::Binary | ResponseEncoding::BinaryPacked => {
            let Some(head) = buf.get(..4) else {
                return Ok(None);
            };
            let len = u32::from_le_bytes(head.try_into().expect("4 bytes"));
            if len > MAX_FRAME_BYTES {
                return Err(WireError(format!(
                    "declared frame length {len} exceeds max {MAX_FRAME_BYTES}"
                )));
            }
            let end = 4 + len as usize;
            let Some(body) = buf.get(4..end) else {
                return Ok(None);
            };
            Ok(Some((wire::decode_response(body)?, end)))
        }
    }
}

/// A client over one TCP connection, in any [`ResponseEncoding`].
///
/// Blocking by default: [`Client::request`] is one synchronous round
/// trip, and [`Client::send`]/[`Client::receive`] support pipelining
/// (queue many, then read the answers back in order). A caller that
/// multiplexes many connections sets them nonblocking and drives
/// [`Client::flush`] and [`Client::poll`] from its readiness loop.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    enc: ResponseEncoding,
    /// Queued request bytes not yet written.
    out: Vec<u8>,
    /// Received bytes not yet taken.
    inbuf: Vec<u8>,
}

impl Client {
    /// Connects and queues the [`preamble`] for `enc` (written with the
    /// first request).
    ///
    /// # Errors
    /// IO errors from connect.
    pub fn connect(addr: impl ToSocketAddrs, enc: ResponseEncoding) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Large frames span many segments; without NODELAY the tail of
        // a frame can sit behind Nagle waiting on a delayed ACK.
        stream.set_nodelay(true)?;
        let mut out = Vec::new();
        preamble(enc, &mut out);
        Ok(Client {
            stream,
            enc,
            out,
            inbuf: Vec::new(),
        })
    }

    /// The encoding this connection speaks.
    #[must_use]
    pub fn encoding(&self) -> ResponseEncoding {
        self.enc
    }

    /// Switches the socket between blocking and nonblocking IO.
    ///
    /// # Errors
    /// IO errors from the socket.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Queues one request (written by [`Self::flush`] or
    /// [`Self::receive`]).
    ///
    /// # Errors
    /// [`WireError`] when the request does not encode.
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        encode_request(self.enc, req, &mut self.out)
    }

    /// Writes queued requests until none remain or the socket would
    /// block; returns whether all were written.
    ///
    /// # Errors
    /// [`WireError`] on IO failure or a server disconnect.
    pub fn flush(&mut self) -> Result<bool, WireError> {
        while !self.out.is_empty() {
            match (&self.stream).write(&self.out) {
                Ok(0) => return Err(WireError("server closed the connection".into())),
                Ok(n) => drop(self.out.drain(..n)),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    /// Returns the next response, reading until one is complete;
    /// `Ok(None)` when a nonblocking socket has none complete yet.
    ///
    /// # Errors
    /// [`WireError`] on IO failure, a server disconnect, or a malformed
    /// response.
    pub fn poll(&mut self) -> Result<Option<Response>, WireError> {
        let mut chunk = [0u8; READ_CHUNK];
        // A JSON response ends at its newline: rescanning a partial line
        // after every read would make a long line quadratic.
        let mut maybe_complete = true;
        loop {
            if maybe_complete {
                if let Some((resp, used)) = take_response(self.enc, &self.inbuf)? {
                    self.inbuf.drain(..used);
                    return Ok(Some(resp));
                }
            }
            let got = match (&self.stream).read(&mut chunk) {
                Ok(0) => return Err(WireError("server closed the connection".into())),
                Ok(got) => got,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e.into()),
            };
            self.inbuf.extend_from_slice(&chunk[..got]);
            maybe_complete = self.enc != ResponseEncoding::Json
                || chunk[..got].contains(&b'\n')
                || self.inbuf.len() > MAX_FRAME_BYTES as usize;
        }
    }

    /// Writes queued requests and reads the next response.
    ///
    /// # Errors
    /// [`WireError`] on IO failure, a server disconnect, a malformed
    /// response, or a nonblocking socket with no response ready.
    pub fn receive(&mut self) -> Result<Response, WireError> {
        self.flush()?;
        self.poll()?
            .ok_or_else(|| WireError("no response ready on a nonblocking connection".into()))
    }

    /// One synchronous request/response round trip.
    ///
    /// # Errors
    /// [`WireError`] as for [`Self::send`] and [`Self::receive`].
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.receive()
    }

    /// Executes a typed [`QueryPlan`] against `release`, unwrapping the
    /// answer.
    ///
    /// # Errors
    /// [`WireError`] on transport failure or a server-side
    /// [`Response::Error`].
    pub fn plan(&mut self, release: &str, plan: QueryPlan) -> Result<Answer, WireError> {
        match self.request(&Request::Plan {
            release: release.to_string(),
            plan,
        })? {
            Response::Answer { answer } => Ok(answer),
            Response::Error { message } => Err(WireError(message)),
            other => Err(WireError(format!("unexpected response {other:?}"))),
        }
    }
}

#[cfg(unix)]
impl std::os::fd::AsRawFd for Client {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.stream.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    /// Every encoding names a server that closes without answering the
    /// same way (NDJSON used to report a JSON parse error of `""`).
    #[test]
    fn a_closed_connection_is_named_in_every_encoding() {
        for enc in [
            ResponseEncoding::Json,
            ResponseEncoding::Binary,
            ResponseEncoding::BinaryPacked,
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut sock, _) = listener.accept().unwrap();
                // Close our side only, then drain: closing with unread
                // request bytes would reset the connection instead.
                sock.shutdown(Shutdown::Write).unwrap();
                std::io::copy(&mut sock, &mut std::io::sink()).ok();
            });
            let mut client = Client::connect(addr, enc).unwrap();
            assert_eq!(client.encoding(), enc);
            let err = client.request(&Request::List).unwrap_err();
            assert_eq!(err.0, "server closed the connection", "{enc:?}");
            drop(client);
            server.join().unwrap();
        }
    }
}
