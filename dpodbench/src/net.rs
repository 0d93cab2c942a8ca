//! The client side of one TCP connection, in any of the three encodings.

use crate::plans::Enc;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::wire;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Encodes `req` as the bytes a client writes: a JSON line, or a `DPRB`
/// frame with its length prefix.
pub fn encode_request(req: &Request, enc: Enc, out: &mut Vec<u8>) -> Result<(), String> {
    out.clear();
    match enc {
        Enc::Json => {
            out.extend_from_slice(
                serde_json::to_string(req)
                    .map_err(|e| e.to_string())?
                    .as_bytes(),
            );
            out.push(b'\n');
        }
        Enc::Binary => wire::write_frame(out, &wire::encode_request(req)).map_err(|e| e.0)?,
        Enc::Packed => {
            wire::write_frame(out, &wire::encode_request_packed(req)).map_err(|e| e.0)?
        }
    }
    Ok(())
}

/// The response body a client parses: the JSON line without its newline,
/// or the frame without its length prefix.
pub fn response_body(framed: &[u8], enc: Enc) -> &[u8] {
    match enc {
        Enc::Json => framed.strip_suffix(b"\n").unwrap_or(framed),
        Enc::Binary | Enc::Packed => framed.get(4..).unwrap_or(&[]),
    }
}

/// Parses one response body.
pub fn decode_response(body: &[u8], enc: Enc) -> Result<Response, String> {
    match enc {
        Enc::Json => {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            serde_json::from_str(text).map_err(|e| e.to_string())
        }
        Enc::Binary | Enc::Packed => wire::decode_response(body).map_err(|e| e.0),
    }
}

/// The body the server must send for `resp` in `enc` (what the answer
/// checks compare against, byte for byte).
pub fn expected_body(resp: &Response, enc: Enc) -> Vec<u8> {
    match enc {
        Enc::Json => serde_json::to_string(resp)
            .expect("answers serialize")
            .into_bytes(),
        Enc::Binary => wire::encode_response(resp),
        Enc::Packed => wire::encode_response_packed(resp),
    }
}

/// One blocking connection with one request in flight at a time.
pub struct Conn {
    pub enc: Enc,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, enc: Enc) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        if enc != Enc::Json {
            let mut preamble = wire::WIRE_MAGIC.to_vec();
            preamble.push(if enc == Enc::Packed {
                wire::WIRE_VERSION | wire::WIRE_FEATURE_PACKED
            } else {
                wire::WIRE_VERSION
            });
            writer.write_all(&preamble).map_err(|e| e.to_string())?;
        }
        Ok(Conn {
            enc,
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            out: Vec::with_capacity(4096),
            body: Vec::with_capacity(4096),
        })
    }

    /// Encodes and writes one request.
    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        encode_request(req, self.enc, &mut self.out)?;
        self.writer.write_all(&self.out).map_err(|e| e.to_string())
    }

    /// Reads and parses the next response; its raw body stays available
    /// through [`Self::body`].
    pub fn recv(&mut self) -> Result<Response, String> {
        self.body.clear();
        match self.enc {
            Enc::Json => {
                let n = self
                    .reader
                    .read_until(b'\n', &mut self.body)
                    .map_err(|e| e.to_string())?;
                if n == 0 {
                    return Err("server closed the connection".into());
                }
                if self.body.last() == Some(&b'\n') {
                    self.body.pop();
                }
            }
            Enc::Binary | Enc::Packed => {
                self.body = wire::read_frame(&mut self.reader)
                    .map_err(|e| e.0)?
                    .ok_or("server closed the connection")?;
            }
        }
        decode_response(&self.body, self.enc)
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }
}
