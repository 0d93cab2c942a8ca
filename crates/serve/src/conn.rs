//! The only framing parser and the one item executor, shared by both
//! TCP front ends: incremental assembly of NDJSON lines and `DPRB`
//! frames from partial reads, and [`run_job`], which answers what was
//! assembled.
//!
//! The [`Assembler`] is deliberately socket-free — it consumes byte
//! chunks in whatever sizes the kernel delivers them and emits
//! [`WorkItem`]s, so a slow-loris client feeding one byte per read
//! produces exactly the same items as a pipelined client delivering a
//! megabyte at once (the unit tests below pin this for any split). The
//! protocol rules it enforces:
//!
//! * the encoding sniff matches the available prefix against the `DPRB`
//!   magic and never consumes bytes from a JSON client;
//! * JSON lines are bounded by [`MAX_LINE_BYTES`](crate::MAX_LINE_BYTES)
//!   (an unbounded line earns one error response, then disconnect);
//! * a `DPRB` frame declaring more than
//!   [`wire::MAX_FRAME_BYTES`] — or truncated by EOF mid-frame — cannot
//!   be resynced: the stream is poisoned with one final error item.
//!
//! Framing, decoding (JSON parse, frame-body decode) and execution all
//! run on worker threads: the event front end's loops only move raw
//! bytes, and the pool front end's workers own their sockets.

use crate::metrics::{kind_index, Stage, Transport, KIND_UNDECODABLE};
use crate::protocol::{Request, Response};
use crate::server::{ResponseEncoding, Server, WireMode, MAX_LINE_BYTES};
use crate::wire;
use dpod_obs::Span;
use std::sync::Arc;

/// One unit of work extracted from a connection's byte stream, in
/// arrival order. The worker that owns the connection's queue turns
/// each item into response bytes (possibly none, for blank lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorkItem {
    /// One newline-delimited JSON request line (without the trailing
    /// `\n`; may be blank). Decoded and answered on a worker.
    JsonLine(Vec<u8>),
    /// One length-prefixed `DPRB` frame body (length already validated
    /// against [`wire::MAX_FRAME_BYTES`]). Decoded and answered on a
    /// worker.
    Frame(Vec<u8>),
    /// An unrecoverable transport violation or an encoding refusal: the
    /// worker emits `message` as one final `Response::Error` (a `DPRB`
    /// frame when `as_binary`, a JSON line otherwise) and the
    /// connection closes once it flushes. Always the queue's last item.
    Desync {
        /// Encode the farewell as a binary frame (`true`) or JSON line.
        as_binary: bool,
        /// Human-readable description of the violation.
        message: String,
    },
    /// EOF arrived before the stream committed to an encoding (e.g. a
    /// 5-byte preamble cut short): nothing to answer, close silently.
    SilentClose,
}

/// Which protocol the connection's bytes have committed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Encoding {
    /// Awaiting enough initial bytes to tell `DPRB` from JSON.
    Sniffing,
    /// Newline-delimited JSON for the connection's lifetime.
    Json,
    /// `DPRB` length-prefixed frames (preamble consumed and validated).
    Binary,
}

/// Incremental protocol assembler: bytes in, [`WorkItem`]s out.
#[derive(Debug)]
pub(crate) struct Assembler {
    mode: WireMode,
    enc: Encoding,
    buf: Vec<u8>,
    pos: usize,
    /// High-water mark of the newline scan: bytes in `buf[..scanned]`
    /// are known to hold no `\n` beyond consumed lines, so each push
    /// only scans its newly appended bytes (a slow-loris client feeding
    /// a near-cap line one byte at a time would otherwise make every
    /// push rescan the whole prefix — O(len²) on the loop thread).
    scanned: usize,
    items: Vec<WorkItem>,
    /// Set when a `Desync`/`SilentClose` was emitted: all further input
    /// is ignored (the stream cannot be trusted past the violation).
    poisoned: bool,
    /// Set once EOF was observed; finalizes partial lines/frames.
    eof: bool,
    /// Set when the `DPRB` preamble advertised
    /// [`wire::WIRE_FEATURE_PACKED`]: responses may use the packed
    /// opcodes.
    packed: bool,
}

impl Assembler {
    pub(crate) fn new(mode: WireMode) -> Self {
        Assembler {
            mode,
            enc: Encoding::Sniffing,
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
            items: Vec::new(),
            poisoned: false,
            eof: false,
            packed: false,
        }
    }

    /// Whether the connection negotiated the packed response opcodes
    /// (meaningful only once the stream committed to `DPRB`).
    pub(crate) fn packed(&self) -> bool {
        self.packed
    }

    /// Whether the stream hit an unrecoverable state: once the pending
    /// items are answered the connection must close. (Production code
    /// learns this from the `Desync`/`SilentClose` item itself — the
    /// accessor is for tests.)
    #[cfg(test)]
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Feeds one chunk of inbound bytes and re-runs the state machine.
    pub(crate) fn push(&mut self, chunk: &[u8]) {
        if self.poisoned {
            return;
        }
        self.buf.extend_from_slice(chunk);
        self.advance();
        self.compact();
    }

    /// Marks end-of-stream: a trailing unterminated JSON line is served,
    /// while a partial `DPRB` frame or preamble is a truncation.
    pub(crate) fn push_eof(&mut self) {
        if self.poisoned || self.eof {
            return;
        }
        self.eof = true;
        self.advance();
        self.compact();
    }

    /// Takes every item assembled so far (arrival order).
    pub(crate) fn take_items(&mut self) -> Vec<WorkItem> {
        std::mem::take(&mut self.items)
    }

    /// Whether unconsumed bytes are buffered — a request (or preamble)
    /// caught mid-assembly. The event loop uses this to time the
    /// `parse` stage: a partial's start is stamped when this first
    /// turns true, and the next completed item records the spread.
    pub(crate) fn has_partial(&self) -> bool {
        self.buf.len() > self.pos
    }

    fn poison(&mut self, item: WorkItem) {
        self.items.push(item);
        self.poisoned = true;
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.scanned = 0;
        } else if self.pos > 64 << 10 {
            self.buf.drain(..self.pos);
            self.scanned = self.scanned.saturating_sub(self.pos);
            self.pos = 0;
        }
    }

    fn advance(&mut self) {
        loop {
            if self.poisoned {
                return;
            }
            let made_progress = match self.enc {
                Encoding::Sniffing => self.sniff(),
                Encoding::Json => self.take_json_line(),
                Encoding::Binary => self.take_frame(),
            };
            if !made_progress {
                return;
            }
        }
    }

    /// The encoding sniff: the available prefix is matched against the
    /// `DPRB` magic, committing to binary (and consuming the 5-byte
    /// preamble) only on a full match — so no byte of a JSON stream is
    /// ever consumed, and a preamble arriving one byte at a time still
    /// selects binary.
    fn sniff(&mut self) -> bool {
        let avail = &self.buf[self.pos..];
        if avail.is_empty() {
            if self.eof {
                self.poison(WorkItem::SilentClose);
            }
            return false;
        }
        let n = avail.len().min(wire::WIRE_MAGIC.len());
        if avail[..n] != wire::WIRE_MAGIC[..n] {
            // Not a binary preamble; the bytes are a JSON stream.
            if self.mode == WireMode::Binary {
                self.poison(WorkItem::Desync {
                    as_binary: true,
                    message: "this endpoint serves DPRB only (--wire binary)".into(),
                });
                return false;
            }
            self.enc = Encoding::Json;
            return true;
        }
        if avail.len() < 5 {
            // Prefix of the magic so far: wait for more (a JSON client
            // cannot produce these bytes, `{`/`"`-initial as JSON is).
            if self.eof {
                self.poison(WorkItem::SilentClose);
            }
            return false;
        }
        // Full magic + version byte present: consume the preamble.
        let version = avail[4];
        self.pos += 5;
        if self.mode == WireMode::Json {
            self.poison(WorkItem::Desync {
                as_binary: true,
                message: "this endpoint serves JSON only (--wire json)".into(),
            });
            return false;
        }
        // The high bit of the version byte is the packed-opcode feature
        // advertisement, not part of the version number.
        if version & !wire::WIRE_FEATURE_PACKED != wire::WIRE_VERSION {
            self.poison(WorkItem::Desync {
                as_binary: true,
                message: format!(
                    "unsupported DPRB version {version}, expected {}",
                    wire::WIRE_VERSION
                ),
            });
            return false;
        }
        self.packed = version & wire::WIRE_FEATURE_PACKED != 0;
        self.enc = Encoding::Binary;
        true
    }

    fn take_json_line(&mut self) -> bool {
        let avail = &self.buf[self.pos..];
        let start = self.scanned.max(self.pos) - self.pos;
        match avail[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|rel| start + rel)
        {
            Some(i) => {
                // The bound applies even when the newline shows up in
                // the same chunk that crossed it: any line whose content
                // reaches the cap is refused, newline or not, so the
                // outcome cannot depend on read boundaries.
                if i as u64 >= MAX_LINE_BYTES {
                    self.poison(WorkItem::Desync {
                        as_binary: false,
                        message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    });
                    return false;
                }
                self.items.push(WorkItem::JsonLine(avail[..i].to_vec()));
                self.pos += i + 1;
                self.scanned = self.pos;
                true
            }
            None => {
                self.scanned = self.buf.len();
                if avail.len() as u64 >= MAX_LINE_BYTES {
                    self.poison(WorkItem::Desync {
                        as_binary: false,
                        message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    });
                } else if self.eof && !avail.is_empty() {
                    // A final unterminated line is still a request.
                    let line = avail.to_vec();
                    self.pos = self.buf.len();
                    self.items.push(WorkItem::JsonLine(line));
                }
                false
            }
        }
    }

    fn take_frame(&mut self) -> bool {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            if self.eof && !avail.is_empty() {
                self.poison(WorkItem::Desync {
                    as_binary: true,
                    message: format!(
                        "protocol error: frame truncated: connection closed after {} of 4 \
                         length bytes",
                        avail.len()
                    ),
                });
            }
            return false;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
        if len > wire::MAX_FRAME_BYTES {
            self.poison(WorkItem::Desync {
                as_binary: true,
                message: format!(
                    "protocol error: declared frame length {len} exceeds max {}",
                    wire::MAX_FRAME_BYTES
                ),
            });
            return false;
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            if self.eof {
                self.poison(WorkItem::Desync {
                    as_binary: true,
                    message: format!(
                        "protocol error: frame truncated: connection closed with {} of {} \
                         body bytes",
                        avail.len() - 4,
                        len
                    ),
                });
            }
            return false;
        }
        self.items.push(WorkItem::Frame(avail[4..total].to_vec()));
        self.pos += total;
        true
    }
}

/// Turns one connection's ordered work items into response bytes.
/// Returns `(bytes, close_after)`; the one item executor both front
/// ends' workers call. Execution and serialization are fused in
/// [`Server::handle_encoded`] (that fusion is what lets a warm
/// encoded-memo hit skip both), so the execute stage covers both.
/// `packed` selects the packed `DPRB` response opcodes for peers that
/// negotiated them.
pub(crate) fn run_job(server: &Server, items: Vec<WorkItem>, packed: bool) -> (Vec<u8>, bool) {
    let metrics = server.metrics();
    let frame_enc = if packed {
        ResponseEncoding::BinaryPacked
    } else {
        ResponseEncoding::Binary
    };
    let mut out = Vec::new();
    for item in items {
        let span = Span::start();
        let (transport, enc, decoded) = match item {
            WorkItem::JsonLine(bytes) => {
                // Invalid UTF-8 cannot be a JSON request line: the
                // connection closes without a reply.
                let Ok(line) = std::str::from_utf8(&bytes) else {
                    return (out, true);
                };
                if line.trim().is_empty() {
                    continue;
                }
                let decoded = serde_json::from_str::<Request>(line.trim_end());
                (
                    Transport::Json,
                    ResponseEncoding::Json,
                    decoded.map_err(|e| e.to_string()),
                )
            }
            WorkItem::Frame(body) => {
                let decoded = wire::decode_request(&body).map_err(|e| e.to_string());
                (Transport::Binary, frame_enc, decoded)
            }
            WorkItem::Desync { as_binary, message } => {
                let (transport, enc) = if as_binary {
                    (Transport::Binary, ResponseEncoding::Binary)
                } else {
                    (Transport::Json, ResponseEncoding::Json)
                };
                metrics.count_request(transport, KIND_UNDECODABLE);
                out.extend_from_slice(&enc.encode(&Response::Error { message }));
                return (out, true);
            }
            WorkItem::SilentClose => return (out, true),
        };
        let encoded = match decoded {
            Ok(request) => {
                metrics.count_request(transport, kind_index(&request));
                server.handle_encoded(&request, enc)
            }
            Err(e) => {
                metrics.count_request(transport, KIND_UNDECODABLE);
                Arc::new(enc.encode(&Response::Error {
                    message: format!("bad request: {e}"),
                }))
            }
        };
        span.finish(metrics.stage(transport, Stage::Execute));
        out.extend_from_slice(&encoded);
    }
    (out, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    /// Feeds `bytes` one at a time and returns everything assembled.
    fn drip(mode: WireMode, bytes: &[u8], eof: bool) -> (Vec<WorkItem>, bool) {
        let mut a = Assembler::new(mode);
        for &b in bytes {
            a.push(&[b]);
        }
        if eof {
            a.push_eof();
        }
        (a.take_items(), a.poisoned())
    }

    #[test]
    fn json_lines_assemble_byte_at_a_time() {
        let stream = b"{\"x\":1}\n\n  \n\"List\"\n";
        let (items, poisoned) = drip(WireMode::Auto, stream, false);
        assert!(!poisoned);
        assert_eq!(
            items,
            vec![
                WorkItem::JsonLine(b"{\"x\":1}".to_vec()),
                WorkItem::JsonLine(b"".to_vec()),
                WorkItem::JsonLine(b"  ".to_vec()),
                WorkItem::JsonLine(b"\"List\"".to_vec()),
            ]
        );
        // Identical to the all-at-once delivery.
        let mut bulk = Assembler::new(WireMode::Auto);
        bulk.push(stream);
        assert_eq!(bulk.take_items(), items);
    }

    #[test]
    fn binary_preamble_and_frames_assemble_byte_at_a_time() {
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION);
        let body = wire::encode_request(&Request::List);
        wire::write_frame(&mut stream, &body).unwrap();
        wire::write_frame(&mut stream, &body).unwrap();
        let (items, poisoned) = drip(WireMode::Auto, &stream, false);
        assert!(!poisoned);
        assert_eq!(
            items,
            vec![WorkItem::Frame(body.clone()), WorkItem::Frame(body)]
        );
    }

    #[test]
    fn sniff_never_consumes_json_bytes_and_short_lines_pass() {
        // A sub-4-byte line that mismatches the magic routes to JSON
        // immediately (no stall waiting for 4 bytes).
        let (items, _) = drip(WireMode::Auto, b"{}\n", false);
        assert_eq!(items, vec![WorkItem::JsonLine(b"{}".to_vec())]);

        // A 'D'-initial prefix is held until it mismatches…
        let mut a = Assembler::new(WireMode::Auto);
        a.push(b"DP");
        assert!(a.take_items().is_empty());
        a.push(b"X rest\n");
        assert_eq!(
            a.take_items(),
            vec![WorkItem::JsonLine(b"DPX rest".to_vec())]
        );
    }

    #[test]
    fn eof_semantics_differ_by_encoding() {
        // JSON: a trailing unterminated line is served (the event loop
        // closes on its `peer_closed` flag, not via poisoning).
        let (items, poisoned) = drip(WireMode::Auto, b"\"List\"", true);
        assert_eq!(items, vec![WorkItem::JsonLine(b"\"List\"".to_vec())]);
        assert!(!poisoned);

        // Binary: EOF inside the length prefix is a named truncation.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION);
        stream.extend_from_slice(&[7, 0]); // 2 of 4 length bytes
        let (items, _) = drip(WireMode::Auto, &stream, true);
        match items.last() {
            Some(WorkItem::Desync { as_binary, message }) => {
                assert!(*as_binary);
                assert!(message.contains("2 of 4"), "{message}");
            }
            other => panic!("expected truncation, got {other:?}"),
        }

        // Binary: EOF mid-body is a named truncation too.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION);
        stream.extend_from_slice(&100u32.to_le_bytes());
        stream.extend_from_slice(&[0u8; 10]);
        let (items, _) = drip(WireMode::Auto, &stream, true);
        match items.last() {
            Some(WorkItem::Desync { message, .. }) => {
                assert!(message.contains("frame truncated"), "{message}");
            }
            other => panic!("expected truncation, got {other:?}"),
        }

        // EOF before the preamble resolves closes silently.
        let (items, _) = drip(WireMode::Auto, b"DPRB", true);
        assert_eq!(items, vec![WorkItem::SilentClose]);
        let (items, _) = drip(WireMode::Auto, b"", true);
        assert_eq!(items, vec![WorkItem::SilentClose]);
    }

    #[test]
    fn oversized_declarations_poison_the_stream() {
        // Oversized frame length.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION);
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(b"ignored tail");
        let (items, poisoned) = drip(WireMode::Auto, &stream, false);
        assert!(poisoned);
        assert_eq!(items.len(), 1);
        match &items[0] {
            WorkItem::Desync { as_binary, message } => {
                assert!(*as_binary);
                assert!(message.contains("exceeds max"), "{message}");
            }
            other => panic!("expected desync, got {other:?}"),
        }

        // A JSON line that never ends.
        let mut a = Assembler::new(WireMode::Auto);
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..9 {
            a.push(&chunk);
        }
        assert!(a.poisoned());
        match a.take_items().last() {
            Some(WorkItem::Desync { as_binary, message }) => {
                assert!(!*as_binary);
                assert!(message.contains("request line exceeds"), "{message}");
            }
            other => panic!("expected line-length desync, got {other:?}"),
        }
        // Poisoned streams ignore further input.
        a.push(b"\"List\"\n");
        assert!(a.take_items().is_empty());

        // The cap binds even when the newline arrives in the chunk
        // that crosses it:
        // content of exactly MAX_LINE_BYTES is refused…
        let mut a = Assembler::new(WireMode::Auto);
        a.push(&vec![b'x'; MAX_LINE_BYTES as usize]);
        a.push(b"\n");
        assert!(a.poisoned());
        match a.take_items().last() {
            Some(WorkItem::Desync { message, .. }) => {
                assert!(message.contains("request line exceeds"), "{message}");
            }
            other => panic!("expected line-length desync, got {other:?}"),
        }
        // …while one byte under the cap is served.
        let mut a = Assembler::new(WireMode::Auto);
        a.push(&vec![b'y'; MAX_LINE_BYTES as usize - 1]);
        a.push(b"\n");
        assert!(!a.poisoned());
        assert_eq!(a.take_items().len(), 1);
    }

    #[test]
    fn wire_mode_restrictions_refuse_in_protocol() {
        // Binary preamble on a JSON-only endpoint.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION);
        let (items, _) = drip(WireMode::Json, &stream, false);
        match &items[0] {
            WorkItem::Desync { as_binary, message } => {
                assert!(*as_binary);
                assert!(message.contains("JSON only"), "{message}");
            }
            other => panic!("expected refusal, got {other:?}"),
        }

        // JSON bytes on a binary-only endpoint.
        let (items, _) = drip(WireMode::Binary, b"\"List\"\n", false);
        match &items[0] {
            WorkItem::Desync { as_binary, message } => {
                assert!(*as_binary);
                assert!(message.contains("DPRB only"), "{message}");
            }
            other => panic!("expected refusal, got {other:?}"),
        }

        // Bad version byte.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION + 7);
        let (items, _) = drip(WireMode::Auto, &stream, false);
        match &items[0] {
            WorkItem::Desync { message, .. } => {
                assert!(message.contains("version"), "{message}");
            }
            other => panic!("expected version refusal, got {other:?}"),
        }
    }

    #[test]
    fn packed_preamble_negotiates_the_feature_bit() {
        // The feature bit commits to binary and records the
        // negotiation; frames flow as usual.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION | wire::WIRE_FEATURE_PACKED);
        let body = wire::encode_request(&Request::List);
        wire::write_frame(&mut stream, &body).unwrap();
        let mut a = Assembler::new(WireMode::Auto);
        for &b in &stream {
            a.push(&[b]);
        }
        assert!(!a.poisoned());
        assert!(a.packed());
        assert_eq!(a.take_items(), vec![WorkItem::Frame(body)]);

        // A plain preamble leaves the flag off.
        let mut a = Assembler::new(WireMode::Auto);
        a.push(wire::WIRE_MAGIC);
        a.push(&[wire::WIRE_VERSION]);
        assert!(!a.packed());
        assert!(!a.poisoned());

        // The feature bit excuses nothing about the version bits: a
        // wrong version under the flag is still refused.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push((wire::WIRE_VERSION + 1) | wire::WIRE_FEATURE_PACKED);
        let (items, poisoned) = drip(WireMode::Auto, &stream, false);
        assert!(poisoned);
        match &items[0] {
            WorkItem::Desync { message, .. } => {
                assert!(message.contains("version"), "{message}");
            }
            other => panic!("expected version refusal, got {other:?}"),
        }
    }

    /// One stream piece: every framing the assembler meets, valid or
    /// not, plus raw noise drawn from the bytes its state machine keys
    /// on.
    fn piece(kind: usize, param: u64) -> Vec<u8> {
        let mut out = Vec::new();
        match kind % 10 {
            0 | 1 => {
                out.extend_from_slice(wire::WIRE_MAGIC);
                out.push(
                    wire::WIRE_VERSION
                        | if kind % 10 == 1 {
                            wire::WIRE_FEATURE_PACKED
                        } else {
                            0
                        },
                );
            }
            2 => {
                out.extend_from_slice(wire::WIRE_MAGIC);
                out.push(wire::WIRE_VERSION + 1 + (param % 3) as u8);
            }
            3 => out.extend_from_slice(b"{\"Plan\":{\"release\":\"a\",\"plan\":\"Total\"}}\n"),
            4 => out.extend_from_slice(&b"  \n"[(param % 3) as usize..]),
            5 => wire::write_frame(&mut out, &wire::encode_request(&Request::List)).unwrap(),
            6 => {
                let body: Vec<u8> = (0..param % 12).map(|i| (param >> i) as u8).collect();
                wire::write_frame(&mut out, &body).unwrap();
            }
            7 => out.extend_from_slice(&(wire::MAX_FRAME_BYTES + 1).to_le_bytes()),
            8 if param.is_multiple_of(16) => {
                out.resize(MAX_LINE_BYTES as usize + (param % 5) as usize, b'x')
            }
            _ => {
                const NOISE: &[u8] = b"DPRB\n\x01\x00\xff{\" ";
                out.extend(
                    (0..1 + param % 7).map(|i| NOISE[(param >> (4 * i)) as usize % NOISE.len()]),
                );
            }
        }
        out
    }

    /// Feeds `chunks` in order (then EOF when asked) and returns the
    /// assembler's full observable outcome.
    fn feed(mode: WireMode, chunks: &[&[u8]], eof: bool) -> (Vec<WorkItem>, bool, bool) {
        let mut a = Assembler::new(mode);
        let mut items = Vec::new();
        for chunk in chunks {
            a.push(chunk);
            items.extend(a.take_items());
        }
        if eof {
            a.push_eof();
        }
        items.extend(a.take_items());
        (items, a.poisoned(), a.packed())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Read boundaries are invisible: any split of a stream yields
        /// exactly the items (and poison and packed state) that feeding
        /// it whole does, on every endpoint mode.
        #[test]
        fn any_split_assembles_like_the_whole_stream(
            mode in 0usize..3,
            pieces in proptest::prop::collection::vec((0usize..10, proptest::any::<u64>()), 0..10),
            cut_seeds in proptest::prop::collection::vec(proptest::any::<u64>(), 0..8),
            eof in proptest::any::<bool>(),
        ) {
            let mode = [WireMode::Auto, WireMode::Json, WireMode::Binary][mode];
            let stream: Vec<u8> = pieces.iter().flat_map(|&(k, p)| piece(k, p)).collect();
            let mut cuts: Vec<usize> = cut_seeds
                .iter()
                .map(|s| (*s % (stream.len() as u64 + 1)) as usize)
                .collect();
            cuts.push(0);
            cuts.push(stream.len());
            cuts.sort_unstable();
            let chunks: Vec<&[u8]> = cuts.windows(2).map(|w| &stream[w[0]..w[1]]).collect();
            let whole = feed(mode, &[&stream], eof);
            let split = feed(mode, &chunks, eof);
            proptest::prop_assert!(whole == split, "split {:?} diverged on {} bytes", cuts, stream.len());
        }
    }

    #[test]
    fn garbage_frames_stay_in_sync() {
        // A length-correct garbage frame is one item; the valid frame
        // behind it is another — the boundary holds.
        let mut stream = Vec::new();
        stream.extend_from_slice(wire::WIRE_MAGIC);
        stream.push(wire::WIRE_VERSION);
        let noise = [0xABu8; 16];
        stream.extend_from_slice(&(noise.len() as u32).to_le_bytes());
        stream.extend_from_slice(&noise);
        let good = wire::encode_request(&Request::List);
        wire::write_frame(&mut stream, &good).unwrap();
        let (items, poisoned) = drip(WireMode::Auto, &stream, false);
        assert!(!poisoned);
        assert_eq!(
            items,
            vec![WorkItem::Frame(noise.to_vec()), WorkItem::Frame(good)]
        );
    }
}
