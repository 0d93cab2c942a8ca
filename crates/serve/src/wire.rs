//! The `DPRB` binary query protocol: length-prefixed frames for
//! interactive-rate analyst traffic.
//!
//! NDJSON (see [`crate::protocol`]) is self-describing and easy to drive
//! from a shell, but serialization dominates its cost: the in-process
//! engine answers ~30× more queries per second than a JSON-per-line
//! socket. `DPRB` closes that gap by packing the same [`Request`] /
//! [`Response`] values as raw little-endian words.
//!
//! ## Connection preamble
//!
//! The server sniffs the first four bytes of every connection. A client
//! that opens with the magic `DPRB` followed by a version byte speaks
//! binary for the lifetime of the connection; anything else is served as
//! newline-delimited JSON (so existing NDJSON clients need no change).
//!
//! ```text
//! preamble (client → server, once):
//!   magic   "DPRB"   4 bytes
//!   version u8       low 7 bits: currently 1; high bit: feature flag
//! ```
//!
//! The version byte's high bit ([`WIRE_FEATURE_PACKED`]) is a feature
//! advertisement, not a version bump: a client setting it declares it
//! understands the packed answer opcode below, and the server is then
//! free to answer with it. Clients that never set the bit get plain
//! frames.
//!
//! ## Frames
//!
//! After the preamble, each direction is a stream of length-prefixed
//! frames. The body reuses the workspace framing primitives
//! ([`FrameWriter`]/[`FrameReader`]), so it carries the same magic and
//! version redundantly — a cheap 5-byte self-check that keeps a desynced
//! stream from being misread as valid requests.
//!
//! ```text
//! frame:
//!   len     u32      body length, ≤ MAX_FRAME_BYTES
//!   body:
//!     magic   "DPRB" 4 bytes
//!     version u8     currently 1
//!     opcode  u8     see below
//!     payload …      opcode-specific, little-endian
//! ```
//!
//! Request opcodes: `0x03` List, `0x04` Stats, `0x05` Plan (release +
//! typed plan tree).
//! Response opcodes: `0x83` Releases, `0x85` Answer (typed answer
//! tree), `0x87` packed Answer, `0x88` Stats snapshot, `0xEF` Error.
//! Any other opcode is refused with a [`WireError`] naming it; the
//! server answers it with one `Error` frame and keeps the connection.
//!
//! ## Stats snapshots (opcode `0x88`)
//!
//! Introspection frames follow the server version. A `Stats` answer is
//! the server's metrics [`Snapshot`] in one generic layout:
//!
//! ```text
//! u64 family count, then per family:
//!   str name, str help, u8 kind (0 counter, 1 gauge, 2 summary),
//!   u64 sample count, then per sample:
//!     str name, u64 label count, (str key, str value) per label,
//!     f64 value
//! ```
//!
//! Strings are u64-length-prefixed UTF-8.
//!
//! ## Packed answers (opcode `0x87`)
//!
//! Negotiated via [`WIRE_FEATURE_PACKED`] and emitted only by
//! [`encode_response_packed`]. A packed `Answer` is the `0x85` tree with
//! each dense marginal vector stored as the varint of every value's
//! IEEE-754 bits XOR the previous value's bits: repeated values
//! collapse to one byte and shared sign/exponent prefixes drop, while
//! worst-case noise costs at most two bytes over raw. The blob is
//! length-prefixed, so the usual bytes-present validation still runs
//! before any allocation. Requests have no packed form:
//! [`encode_request_packed`] equals [`encode_request`].
//!
//! ## Plan and answer trees (opcodes `0x05`/`0x85`)
//!
//! A `Plan` payload is the release name then a tagged plan tree:
//! `0x01` Range (lo\[\], hi\[\]), `0x02` Od (presence-byte-prefixed
//! origin/destination regions of 4 raw u64 corners each, then
//! `u64 count` × (u64 stop index + region)), `0x03` Marginal (keep\[\]),
//! `0x04` TopK (u64 k), `0x05` Total, `0x06` Many (u64 count + nested
//! plans), `0x07` Window (selector tag + ids, merge tag, nested plan),
//! `0x08` DrillDown (u64 pyramid level + nested plan).
//! An `Answer` payload mirrors it with packed encodings for the
//! hot variants: `0x01` Value (f64), `0x02` Marginal (dims\[\] + a raw
//! f64 vector), `0x03` TopK (dims\[\], u64 count, then `count` packed
//! flat-index/value u64 word pairs), `0x04` Many (u64 count + nested
//! answers), `0x05` Epochs (u64 count + raw epoch ids, then u64 count +
//! nested answers). The `0x07`/`0x05` window tags are additive: earlier
//! encoders never emit them and earlier decoders reject them as unknown
//! tags, so legacy bytes are untouched.
//!
//! Every decode error is a descriptive [`WireError`], never a panic; the
//! declared lengths are validated against the bytes actually present
//! before any allocation.

use crate::protocol::{ReleaseInfo, Request, Response};
use dpod_fmatrix::codec::{FrameReader, FrameWriter};
use dpod_obs::{MetricKind, Snapshot};
use dpod_query::{Answer, EpochSelector, QueryPlan, Region, TopCell, WindowMerge};
use std::io::{ErrorKind, Read, Write};

/// Frame magic, shared with the workspace frame registry.
pub use dpod_fmatrix::codec::{WIRE_MAGIC, WIRE_VERSION};
pub use dpod_query::put_uvarint;

/// Upper bound on one frame body; a peer declaring more is disconnected
/// (64 MiB holds a ~8M-value response).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Preamble feature bit: the client understands the packed answer
/// opcode and the server may answer with it. Or-ed onto the version
/// byte of the connection preamble only — frame bodies always carry the
/// plain [`WIRE_VERSION`], so every frame stays decodable in isolation.
pub const WIRE_FEATURE_PACKED: u8 = 0x80;

const OP_LIST: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_PLAN: u8 = 0x05;
const OP_RELEASES: u8 = 0x83;
const OP_ANSWER: u8 = 0x85;
const OP_ANSWER_PACKED: u8 = 0x87;
const OP_SNAPSHOT: u8 = 0x88;
const OP_ERROR: u8 = 0xEF;

/// Family kinds inside an `OP_SNAPSHOT` payload, indexed by tag (the
/// [`MetricKind`] discriminant).
const FAMILY_KINDS: [MetricKind; 3] = [MetricKind::Counter, MetricKind::Gauge, MetricKind::Summary];

// Plan tags inside an `OP_PLAN` payload (one per `QueryPlan` variant).
// `PLAN_WINDOW` and `PLAN_DRILL_DOWN` are additive: older encoders never
// emit them and older decoders reject them as unknown tags, so legacy
// bytes are untouched (the pinned-bytes tests below prove it).
const PLAN_RANGE: u8 = 0x01;
const PLAN_OD: u8 = 0x02;
const PLAN_MARGINAL: u8 = 0x03;
const PLAN_TOP_K: u8 = 0x04;
const PLAN_TOTAL: u8 = 0x05;
const PLAN_MANY: u8 = 0x06;
const PLAN_WINDOW: u8 = 0x07;
const PLAN_DRILL_DOWN: u8 = 0x08;

// Epoch-selector tags inside a `PLAN_WINDOW` payload.
const SELECT_AT: u8 = 0x01;
const SELECT_LAST_K: u8 = 0x02;
const SELECT_RANGE: u8 = 0x03;

// Window-merge tags inside a `PLAN_WINDOW` payload.
const MERGE_SUM: u8 = 0x01;
const MERGE_PER_EPOCH: u8 = 0x02;

// Answer tags inside an `OP_ANSWER` payload (one per `Answer` variant;
// `ANSWER_EPOCHS` is additive, as `PLAN_WINDOW` above).
const ANSWER_VALUE: u8 = 0x01;
const ANSWER_MARGINAL: u8 = 0x02;
const ANSWER_TOP_K: u8 = 0x03;
const ANSWER_MANY: u8 = 0x04;
const ANSWER_EPOCHS: u8 = 0x05;

/// Deepest `Many` nesting the decoder will follow. The executor rejects
/// nested `Many` anyway; this cap merely keeps an adversarial frame from
/// recursing the decoder off the stack.
const MAX_PLAN_DEPTH: usize = 32;

/// A protocol violation: framing, length, or payload decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<dpod_fmatrix::FmError> for WireError {
    fn from(e: dpod_fmatrix::FmError) -> Self {
        WireError(format!("bad frame: {e}"))
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError(format!("io: {e}"))
    }
}

fn writer(cap: usize, opcode: u8) -> FrameWriter {
    let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, cap + 1);
    w.put_u8(opcode);
    w
}

/// Strings on the wire are u64-length-prefixed UTF-8 (release names and
/// error messages have no 64 KiB ceiling the way `put_str` assumes).
fn put_wire_str(w: &mut FrameWriter, s: &str) {
    w.put_bytes(s.as_bytes());
}

fn get_wire_str(r: &mut FrameReader<'_>, what: &str) -> Result<String, WireError> {
    let raw = r.get_bytes(what)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| WireError(format!("frame field {what} is not valid UTF-8")))
}

/// Reads one LEB128 varint from `bytes` at `*pos`, advancing the cursor
/// past it.
///
/// # Errors
/// [`WireError`] when the blob ends mid-varint, the encoding carries
/// more than 64 significant bits, or it is longer than
/// [`put_uvarint`] writes (a trailing zero byte), so every accepted
/// varint re-encodes to its own bytes.
pub fn get_uvarint(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| WireError(format!("frame field {what}: varint truncated")))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(WireError(format!(
                "frame field {what}: varint overflows u64"
            )));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            if b == 0 && shift > 0 {
                return Err(WireError(format!(
                    "frame field {what}: varint is not minimal"
                )));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

/// Packs a dense f64 vector as varints of each value's IEEE-754 bits
/// XOR the previous value's bits (implicit zero start): repeats cost one
/// byte, shared sign/exponent prefixes drop, worst-case noise costs 10
/// bytes against 8 raw.
fn pack_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0u64;
    for &v in values {
        let bits = v.to_bits();
        put_uvarint(&mut out, bits ^ prev);
        prev = bits;
    }
    out
}

/// Decodes exactly `count` XOR-packed f64 values (see [`pack_f64s`]),
/// rejecting a blob that is short, long, or truncated mid-varint. Every
/// value costs at least one byte, so the up-front count check bounds the
/// allocation.
fn unpack_f64s(blob: &[u8], count: usize, what: &str) -> Result<Vec<f64>, WireError> {
    if count > blob.len() {
        return Err(WireError(format!(
            "frame field {what}: {count} packed values cannot fit in {} bytes",
            blob.len()
        )));
    }
    let mut pos = 0usize;
    let mut prev = 0u64;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        prev ^= get_uvarint(blob, &mut pos, what)?;
        values.push(f64::from_bits(prev));
    }
    if pos != blob.len() {
        return Err(WireError(format!(
            "frame field {what}: {} trailing bytes after packed values",
            blob.len() - pos
        )));
    }
    Ok(values)
}

/// Encodes one request as a `DPRB` frame body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Plan { release, plan } => {
            let mut w = writer(release.len() + 64, OP_PLAN);
            put_wire_str(&mut w, release);
            encode_plan(&mut w, plan);
            w.finish().to_vec()
        }
        Request::List => writer(0, OP_LIST).finish().to_vec(),
        Request::Stats => writer(0, OP_STATS).finish().to_vec(),
    }
}

/// Encodes one request for a connection that negotiated
/// [`WIRE_FEATURE_PACKED`]. Requests have no packed form, so this is
/// [`encode_request`]; it stays for callers that pick both encoders per
/// connection, as dpodbench's packed client does.
pub fn encode_request_packed(req: &Request) -> Vec<u8> {
    encode_request(req)
}

/// A `Region` is four raw u64 corner coordinates.
fn put_region(w: &mut FrameWriter, r: &Region) {
    w.put_u64(r.lo.0 as u64);
    w.put_u64(r.lo.1 as u64);
    w.put_u64(r.hi.0 as u64);
    w.put_u64(r.hi.1 as u64);
}

fn get_region(r: &mut FrameReader<'_>, what: &str) -> Result<Region, WireError> {
    let raw = r.get_raw_u64s(4, what)?;
    let word = |i: usize| {
        u64::from_le_bytes(raw[i * 8..(i + 1) * 8].try_into().expect("8 bytes")) as usize
    };
    Ok(Region::new((word(0), word(1)), (word(2), word(3))))
}

/// An `Option<Region>` is a presence byte, then the region when present.
fn put_opt_region(w: &mut FrameWriter, r: &Option<Region>) {
    match r {
        None => w.put_u8(0),
        Some(region) => {
            w.put_u8(1);
            put_region(w, region);
        }
    }
}

fn get_opt_region(r: &mut FrameReader<'_>, what: &str) -> Result<Option<Region>, WireError> {
    match r.get_u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(get_region(r, what)?)),
        other => Err(WireError(format!(
            "frame field {what}: presence byte must be 0 or 1, got {other}"
        ))),
    }
}

/// Encodes one plan recursively (tag byte, then variant payload).
fn encode_plan(w: &mut FrameWriter, plan: &QueryPlan) {
    match plan {
        QueryPlan::Range { lo, hi } => {
            w.put_u8(PLAN_RANGE);
            w.put_usize_slice(lo);
            w.put_usize_slice(hi);
        }
        QueryPlan::Od {
            origin,
            stops,
            destination,
        } => {
            w.put_u8(PLAN_OD);
            put_opt_region(w, origin);
            put_opt_region(w, destination);
            w.put_u64(stops.len() as u64);
            for (index, region) in stops {
                w.put_u64(*index as u64);
                put_region(w, region);
            }
        }
        QueryPlan::Marginal { keep } => {
            w.put_u8(PLAN_MARGINAL);
            w.put_usize_slice(keep);
        }
        QueryPlan::TopK { k } => {
            w.put_u8(PLAN_TOP_K);
            w.put_u64(*k as u64);
        }
        QueryPlan::Total => w.put_u8(PLAN_TOTAL),
        QueryPlan::Many { plans } => {
            w.put_u8(PLAN_MANY);
            w.put_u64(plans.len() as u64);
            for p in plans {
                encode_plan(w, p);
            }
        }
        QueryPlan::Window {
            select,
            merge,
            plan,
        } => {
            w.put_u8(PLAN_WINDOW);
            match select {
                EpochSelector::At { epoch } => {
                    w.put_u8(SELECT_AT);
                    w.put_u64(*epoch);
                }
                EpochSelector::LastK { k } => {
                    w.put_u8(SELECT_LAST_K);
                    w.put_u64(*k);
                }
                EpochSelector::Range { from, to } => {
                    w.put_u8(SELECT_RANGE);
                    w.put_u64(*from);
                    w.put_u64(*to);
                }
            }
            w.put_u8(match merge {
                WindowMerge::Sum => MERGE_SUM,
                WindowMerge::PerEpoch => MERGE_PER_EPOCH,
            });
            encode_plan(w, plan);
        }
        QueryPlan::DrillDown { level, plan } => {
            w.put_u8(PLAN_DRILL_DOWN);
            w.put_u64(u64::from(*level));
            encode_plan(w, plan);
        }
    }
}

fn decode_plan(r: &mut FrameReader<'_>, depth: usize) -> Result<QueryPlan, WireError> {
    if depth > MAX_PLAN_DEPTH {
        return Err(WireError(format!(
            "plan nesting exceeds depth {MAX_PLAN_DEPTH}"
        )));
    }
    match r.get_u8("plan tag")? {
        PLAN_RANGE => Ok(QueryPlan::Range {
            lo: r.get_usize_vec("plan lo")?,
            hi: r.get_usize_vec("plan hi")?,
        }),
        PLAN_OD => {
            let origin = get_opt_region(r, "od origin")?;
            let destination = get_opt_region(r, "od destination")?;
            let count = usize::try_from(r.get_u64("od stop count")?)
                .map_err(|_| WireError("od stop count overflows".into()))?;
            // Each stop is 40 bytes; the byte budget is validated before
            // the vector allocates.
            let mut stops = Vec::with_capacity(count.min(1 << 12));
            for _ in 0..count {
                let index = usize::try_from(r.get_u64("od stop index")?)
                    .map_err(|_| WireError("od stop index overflows".into()))?;
                stops.push((index, get_region(r, "od stop region")?));
            }
            Ok(QueryPlan::Od {
                origin,
                stops,
                destination,
            })
        }
        PLAN_MARGINAL => Ok(QueryPlan::Marginal {
            keep: r.get_usize_vec("marginal keep")?,
        }),
        PLAN_TOP_K => Ok(QueryPlan::TopK {
            k: usize::try_from(r.get_u64("top-k k")?)
                .map_err(|_| WireError("top-k k overflows".into()))?,
        }),
        PLAN_TOTAL => Ok(QueryPlan::Total),
        PLAN_MANY => {
            let count = usize::try_from(r.get_u64("many count")?)
                .map_err(|_| WireError("many count overflows".into()))?;
            // Every sub-plan consumes at least its tag byte, so a huge
            // declared count fails on the first missing byte; only the
            // initial capacity needs capping.
            let mut plans = Vec::with_capacity(count.min(1 << 12));
            for _ in 0..count {
                plans.push(decode_plan(r, depth + 1)?);
            }
            Ok(QueryPlan::Many { plans })
        }
        PLAN_WINDOW => {
            let select = match r.get_u8("window selector tag")? {
                SELECT_AT => EpochSelector::At {
                    epoch: r.get_u64("window epoch")?,
                },
                SELECT_LAST_K => EpochSelector::LastK {
                    k: r.get_u64("window k")?,
                },
                SELECT_RANGE => EpochSelector::Range {
                    from: r.get_u64("window from")?,
                    to: r.get_u64("window to")?,
                },
                other => {
                    return Err(WireError(format!(
                        "unknown window selector tag {other:#04x}"
                    )))
                }
            };
            let merge = match r.get_u8("window merge tag")? {
                MERGE_SUM => WindowMerge::Sum,
                MERGE_PER_EPOCH => WindowMerge::PerEpoch,
                other => return Err(WireError(format!("unknown window merge tag {other:#04x}"))),
            };
            let plan = Box::new(decode_plan(r, depth + 1)?);
            Ok(QueryPlan::Window {
                select,
                merge,
                plan,
            })
        }
        PLAN_DRILL_DOWN => {
            let level = u32::try_from(r.get_u64("drill-down level")?)
                .map_err(|_| WireError("drill-down level overflows".into()))?;
            let plan = Box::new(decode_plan(r, depth + 1)?);
            Ok(QueryPlan::DrillDown { level, plan })
        }
        other => Err(WireError(format!("unknown plan tag {other:#04x}"))),
    }
}

/// Row-major strides for a dims list (last dimension contiguous).
/// Saturating: an overflowing (hence invalid) domain cannot panic the
/// encoder; the decoder rejects such dims via its checked size.
fn strides_for(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1].saturating_mul(dims[i + 1]);
    }
    strides
}

/// Encodes one answer recursively. Top-k cells pack as flat-index/value
/// word pairs against the answer's own `dims` (the hot variant: two raw
/// words per cell, no per-cell framing). Under `packed` (the
/// `OP_ANSWER_PACKED` body) dense marginal vectors switch to the
/// XOR-varint form; the tag tree and every other payload are unchanged.
fn encode_answer(w: &mut FrameWriter, answer: &Answer, packed: bool) {
    match answer {
        Answer::Value { value } => {
            w.put_u8(ANSWER_VALUE);
            w.put_f64(*value);
        }
        Answer::Marginal { dims, values } => {
            w.put_u8(ANSWER_MARGINAL);
            w.put_usize_slice(dims);
            if packed {
                w.put_u64(values.len() as u64);
                w.put_bytes(&pack_f64s(values));
            } else {
                w.put_f64_slice(values);
            }
        }
        Answer::TopK { dims, cells } => {
            w.put_u8(ANSWER_TOP_K);
            w.put_usize_slice(dims);
            let strides = strides_for(dims);
            w.put_u64(cells.len() as u64);
            for cell in cells {
                let flat: usize = cell
                    .coords
                    .iter()
                    .zip(&strides)
                    .map(|(&c, &s)| c.saturating_mul(s))
                    .fold(0usize, usize::saturating_add);
                w.put_u64(flat as u64);
                w.put_f64(cell.value);
            }
        }
        Answer::Many { answers } => {
            w.put_u8(ANSWER_MANY);
            w.put_u64(answers.len() as u64);
            for a in answers {
                encode_answer(w, a, packed);
            }
        }
        Answer::Epochs { epochs, answers } => {
            w.put_u8(ANSWER_EPOCHS);
            w.put_u64(epochs.len() as u64);
            for &e in epochs {
                w.put_u64(e);
            }
            w.put_u64(answers.len() as u64);
            for a in answers {
                encode_answer(w, a, packed);
            }
        }
    }
}

fn decode_answer(r: &mut FrameReader<'_>, depth: usize, packed: bool) -> Result<Answer, WireError> {
    if depth > MAX_PLAN_DEPTH {
        return Err(WireError(format!(
            "answer nesting exceeds depth {MAX_PLAN_DEPTH}"
        )));
    }
    match r.get_u8("answer tag")? {
        ANSWER_VALUE => Ok(Answer::Value {
            value: r.get_f64("answer value")?,
        }),
        ANSWER_MARGINAL => {
            let dims = r.get_usize_vec("marginal dims")?;
            let values = if packed {
                let count = usize::try_from(r.get_u64("marginal count")?)
                    .map_err(|_| WireError("marginal count overflows".into()))?;
                let blob = r.get_bytes("packed marginal values")?;
                unpack_f64s(blob, count, "packed marginal values")?
            } else {
                r.get_f64_vec("marginal values")?
            };
            Ok(Answer::Marginal { dims, values })
        }
        ANSWER_TOP_K => {
            let dims = r.get_usize_vec("top-k dims")?;
            let size = dims
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| WireError("top-k dims overflow".into()))?;
            let strides = strides_for(&dims);
            let count = usize::try_from(r.get_u64("top-k count")?)
                .map_err(|_| WireError("top-k count overflows".into()))?;
            let words = count
                .checked_mul(2)
                .ok_or_else(|| WireError("top-k count overflows".into()))?;
            let raw = r.get_raw_u64s(words, "top-k cells")?;
            let mut cells = Vec::with_capacity(count);
            for pair in raw.chunks_exact(16) {
                let flat = u64::from_le_bytes(pair[..8].try_into().expect("8 bytes")) as usize;
                let value =
                    f64::from_bits(u64::from_le_bytes(pair[8..].try_into().expect("8 bytes")));
                if flat >= size {
                    return Err(WireError(format!(
                        "top-k cell index {flat} out of domain {dims:?}"
                    )));
                }
                let mut rem = flat;
                let coords = strides
                    .iter()
                    .map(|&s| {
                        let c = rem / s;
                        rem %= s;
                        c
                    })
                    .collect();
                cells.push(TopCell { coords, value });
            }
            Ok(Answer::TopK { dims, cells })
        }
        ANSWER_MANY => {
            let count = usize::try_from(r.get_u64("answer count")?)
                .map_err(|_| WireError("answer count overflows".into()))?;
            let mut answers = Vec::with_capacity(count.min(1 << 12));
            for _ in 0..count {
                answers.push(decode_answer(r, depth + 1, packed)?);
            }
            Ok(Answer::Many { answers })
        }
        ANSWER_EPOCHS => {
            let n = usize::try_from(r.get_u64("epoch count")?)
                .map_err(|_| WireError("epoch count overflows".into()))?;
            // Each epoch id is 8 bytes; the reader validates the byte
            // budget before the vector allocates.
            let raw = r.get_raw_u64s(n, "epoch ids")?;
            let epochs = raw
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            let count = usize::try_from(r.get_u64("epoch answer count")?)
                .map_err(|_| WireError("epoch answer count overflows".into()))?;
            let mut answers = Vec::with_capacity(count.min(1 << 12));
            for _ in 0..count {
                answers.push(decode_answer(r, depth + 1, packed)?);
            }
            Ok(Answer::Epochs { epochs, answers })
        }
        other => Err(WireError(format!("unknown answer tag {other:#04x}"))),
    }
}

/// Decodes a `DPRB` frame body into a request.
///
/// # Errors
/// [`WireError`] naming the first framing violation; truncated frames,
/// oversized declared lengths and unknown opcodes all land here.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    let mut r = FrameReader::new(body, WIRE_MAGIC, WIRE_VERSION)?;
    let op = r.get_u8("opcode")?;
    let req = match op {
        OP_PLAN => {
            let release = get_wire_str(&mut r, "release")?;
            let plan = decode_plan(&mut r, 0)?;
            Request::Plan { release, plan }
        }
        OP_LIST => Request::List,
        OP_STATS => Request::Stats,
        other => return Err(WireError(format!("unknown request opcode {other:#04x}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes one response as a `DPRB` frame body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Answer { answer } => {
            let mut w = writer(64, OP_ANSWER);
            encode_answer(&mut w, answer, false);
            w.finish().to_vec()
        }
        Response::Releases { releases } => {
            let mut w = writer(releases.len() * 64, OP_RELEASES);
            w.put_u64(releases.len() as u64);
            for info in releases {
                put_wire_str(&mut w, &info.name);
                w.put_u64(info.version);
                put_wire_str(&mut w, &info.mechanism);
                w.put_f64(info.epsilon);
                w.put_usize_slice(&info.domain);
                w.put_u64(info.released_values as u64);
            }
            w.finish().to_vec()
        }
        Response::Stats { stats } => {
            let mut w = writer(4096, OP_SNAPSHOT);
            encode_snapshot(&mut w, stats);
            w.finish().to_vec()
        }
        Response::Error { message } => {
            let mut w = writer(message.len() + 8, OP_ERROR);
            put_wire_str(&mut w, message);
            w.finish().to_vec()
        }
    }
}

fn encode_snapshot(w: &mut FrameWriter, snap: &Snapshot) {
    w.put_u64(snap.families.len() as u64);
    for fam in &snap.families {
        put_wire_str(w, &fam.name);
        put_wire_str(w, &fam.help);
        w.put_u8(fam.kind as u8);
        w.put_u64(fam.samples.len() as u64);
        for s in &fam.samples {
            put_wire_str(w, &s.name);
            w.put_u64(s.labels.len() as u64);
            for (k, v) in &s.labels {
                put_wire_str(w, k);
                put_wire_str(w, v);
            }
            w.put_f64(s.value);
        }
    }
}

/// Decodes an [`OP_SNAPSHOT`] payload. Vectors grow as elements decode
/// (no preallocation from declared counts), so a lying count fails on
/// the truncation it causes, naming the field.
fn decode_snapshot(r: &mut FrameReader<'_>) -> Result<Snapshot, WireError> {
    let mut snap = Snapshot::default();
    for _ in 0..r.get_u64("family count")? {
        let name = get_wire_str(r, "family name")?;
        let help = get_wire_str(r, "family help")?;
        let tag = r.get_u8("family kind")?;
        let kind = *(FAMILY_KINDS.get(tag as usize))
            .ok_or_else(|| WireError(format!("unknown family kind {tag:#04x}")))?;
        let fam = snap.family(&name, &help, kind);
        for _ in 0..r.get_u64("sample count")? {
            let name = get_wire_str(r, "sample name")?;
            let mut labels = Vec::new();
            for _ in 0..r.get_u64("label count")? {
                labels.push((
                    get_wire_str(r, "label key")?,
                    get_wire_str(r, "label value")?,
                ));
            }
            let value = r.get_f64("sample value")?;
            fam.samples.push(dpod_obs::Sample {
                name,
                labels,
                value,
            });
        }
    }
    Ok(snap)
}

/// Encodes one response preferring the packed answer opcode. Every
/// other variant falls back to [`encode_response`] byte-identically;
/// emit these frames only to peers that advertised
/// [`WIRE_FEATURE_PACKED`].
pub fn encode_response_packed(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Answer { answer } => {
            let mut w = writer(64, OP_ANSWER_PACKED);
            encode_answer(&mut w, answer, true);
            w.finish().to_vec()
        }
        other => encode_response(other),
    }
}

/// Decodes a `DPRB` frame body into a response.
///
/// # Errors
/// [`WireError`] naming the first framing violation.
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    let mut r = FrameReader::new(body, WIRE_MAGIC, WIRE_VERSION)?;
    let op = r.get_u8("opcode")?;
    let resp = match op {
        OP_ANSWER => Response::Answer {
            answer: decode_answer(&mut r, 0, false)?,
        },
        OP_ANSWER_PACKED => Response::Answer {
            answer: decode_answer(&mut r, 0, true)?,
        },
        OP_RELEASES => {
            let count = r.get_u64("release count")?;
            let mut releases = Vec::with_capacity(usize::try_from(count).unwrap_or(0).min(1 << 16));
            for _ in 0..count {
                releases.push(ReleaseInfo {
                    name: get_wire_str(&mut r, "name")?,
                    version: r.get_u64("version")?,
                    mechanism: get_wire_str(&mut r, "mechanism")?,
                    epsilon: r.get_f64("epsilon")?,
                    domain: r.get_usize_vec("domain")?,
                    released_values: r.get_u64("released_values")? as usize,
                });
            }
            Response::Releases { releases }
        }
        OP_SNAPSHOT => Response::Stats {
            stats: decode_snapshot(&mut r)?,
        },
        OP_ERROR => Response::Error {
            message: get_wire_str(&mut r, "message")?,
        },
        other => return Err(WireError(format!("unknown response opcode {other:#04x}"))),
    };
    r.finish()?;
    Ok(resp)
}

/// Writes one length-prefixed frame (no flush).
///
/// # Errors
/// [`WireError`] when `body` exceeds [`MAX_FRAME_BYTES`] or on IO failure.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            WireError(format!(
                "frame body of {} bytes exceeds max {MAX_FRAME_BYTES}",
                body.len()
            ))
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

/// Reads one length-prefixed frame body. Returns `Ok(None)` on a clean
/// EOF at a frame boundary.
///
/// # Errors
/// [`WireError`] on mid-frame EOF, a declared length beyond
/// [`MAX_FRAME_BYTES`] (the stream cannot be resynced — callers should
/// close), or IO failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    // Read the length prefix byte-counted: EOF before the first byte is
    // a clean close, EOF after 1–3 bytes is a truncated stream and must
    // say so (read_exact would conflate the two).
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(WireError(format!(
                    "frame truncated: connection closed after {got} of 4 length bytes"
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(WireError(format!(
            "declared frame length {len} exceeds max {MAX_FRAME_BYTES}"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => WireError(format!("frame truncated: {e}")),
        _ => e.into(),
    })?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) -> Request {
        decode_request(&encode_request(req)).expect("request decodes")
    }

    fn round_trip_response(resp: &Response) -> Response {
        decode_response(&encode_response(resp)).expect("response decodes")
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            // Mixed dimensionality and degenerate corners must survive.
            Request::Plan {
                release: "x".into(),
                plan: QueryPlan::Many {
                    plans: vec![
                        QueryPlan::Range {
                            lo: vec![],
                            hi: vec![],
                        },
                        QueryPlan::Range {
                            lo: vec![9],
                            hi: vec![2],
                        },
                        QueryPlan::Range {
                            lo: vec![0, usize::MAX],
                            hi: vec![usize::MAX, 0],
                        },
                    ],
                },
            },
            Request::Plan {
                release: "empty".into(),
                plan: QueryPlan::Many { plans: vec![] },
            },
            Request::Plan {
                release: "city".into(),
                plan: QueryPlan::Many {
                    plans: vec![
                        QueryPlan::Range {
                            lo: vec![0, 0],
                            hi: vec![4, 4],
                        },
                        QueryPlan::od()
                            .with_origin(Region::new((0, 0), (2, 2)))
                            .with_stop(0, Region::new((1, 1), (3, 3)))
                            .with_destination(Region::new((4, 4), (8, 8))),
                        QueryPlan::Marginal { keep: vec![0, 3] },
                        QueryPlan::TopK { k: 17 },
                        QueryPlan::Total,
                    ],
                },
            },
            Request::Plan {
                release: "x".into(),
                plan: QueryPlan::od(),
            },
            Request::Plan {
                release: "series".into(),
                plan: QueryPlan::Window {
                    select: EpochSelector::LastK { k: 4 },
                    merge: WindowMerge::Sum,
                    plan: Box::new(QueryPlan::Marginal { keep: vec![0] }),
                },
            },
            Request::Plan {
                release: "series".into(),
                plan: QueryPlan::Window {
                    select: EpochSelector::Range { from: 2, to: 9 },
                    merge: WindowMerge::PerEpoch,
                    plan: Box::new(QueryPlan::TopK { k: 3 }),
                },
            },
            Request::Plan {
                release: "series".into(),
                plan: QueryPlan::Window {
                    select: EpochSelector::At { epoch: 7 },
                    merge: WindowMerge::Sum,
                    plan: Box::new(QueryPlan::Total),
                },
            },
            Request::Plan {
                release: "city".into(),
                plan: QueryPlan::DrillDown {
                    level: 3,
                    plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
                },
            },
            Request::Plan {
                release: "city".into(),
                plan: QueryPlan::DrillDown {
                    level: 0,
                    plan: Box::new(QueryPlan::Range {
                        lo: vec![0, 0],
                        hi: vec![4, 4],
                    }),
                },
            },
            Request::List,
            Request::Stats,
        ];
        for req in &reqs {
            assert_eq!(&round_trip_request(req), req);
            // Requests have no packed form.
            assert_eq!(encode_request_packed(req), encode_request(req));
        }
    }

    #[test]
    fn answers_round_trip_packed() {
        let resps = vec![
            Response::Answer {
                answer: Answer::Value { value: -0.0 },
            },
            Response::Answer {
                answer: Answer::Marginal {
                    dims: vec![3, 2],
                    values: vec![1.5, -2.0, f64::MAX, 0.0, -1e-300, 7.0],
                },
            },
            Response::Answer {
                answer: Answer::TopK {
                    dims: vec![4, 4],
                    cells: vec![
                        TopCell {
                            coords: vec![3, 1],
                            value: 9.25,
                        },
                        TopCell {
                            coords: vec![0, 0],
                            value: -4.0,
                        },
                    ],
                },
            },
            // An empty-domain top-k (0-d release) packs as index 0.
            Response::Answer {
                answer: Answer::TopK {
                    dims: vec![],
                    cells: vec![TopCell {
                        coords: vec![],
                        value: 2.5,
                    }],
                },
            },
            Response::Answer {
                answer: Answer::Many {
                    answers: vec![
                        Answer::Value { value: 1.0 },
                        Answer::Marginal {
                            dims: vec![1],
                            values: vec![0.5],
                        },
                    ],
                },
            },
            Response::Answer {
                answer: Answer::Epochs {
                    epochs: vec![3, 4, 5],
                    answers: vec![
                        Answer::Value { value: 1.0 },
                        Answer::Value { value: -2.5 },
                        Answer::Marginal {
                            dims: vec![2],
                            values: vec![0.25, 0.75],
                        },
                    ],
                },
            },
        ];
        for resp in &resps {
            assert_eq!(&round_trip_response(resp), resp);
        }
    }

    /// Window plan tags past the legacy set are validated: an unknown
    /// selector or merge tag is a named error, never a misread.
    #[test]
    fn window_decode_rejects_unknown_tags() {
        let good = encode_request(&Request::Plan {
            release: "s".into(),
            plan: QueryPlan::Window {
                select: EpochSelector::LastK { k: 2 },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::Total),
            },
        });
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut {cut}");
        }
        // Unknown selector tag.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 32);
        w.put_u8(OP_PLAN);
        w.put_bytes(b"s");
        w.put_u8(PLAN_WINDOW);
        w.put_u8(0x7E);
        let err = decode_request(&w.finish()).expect_err("selector tag check");
        assert!(err.0.contains("selector"), "{err}");
        // Unknown merge tag.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 32);
        w.put_u8(OP_PLAN);
        w.put_bytes(b"s");
        w.put_u8(PLAN_WINDOW);
        w.put_u8(SELECT_AT);
        w.put_u64(1);
        w.put_u8(0x7E);
        let err = decode_request(&w.finish()).expect_err("merge tag check");
        assert!(err.0.contains("merge"), "{err}");
        // An epochs answer declaring more ids than the frame holds must
        // fail on the byte budget, not allocate.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 32);
        w.put_u8(OP_ANSWER);
        w.put_u8(ANSWER_EPOCHS);
        w.put_u64(u64::MAX / 16);
        assert!(decode_response(&w.finish()).is_err());
    }

    #[test]
    fn plan_decode_rejects_malice_without_panicking() {
        let good = encode_request(&Request::Plan {
            release: "r".into(),
            plan: QueryPlan::TopK { k: 3 },
        });
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut {cut}");
        }
        // Unknown plan tag.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 16);
        w.put_u8(OP_PLAN);
        w.put_bytes(b"r");
        w.put_u8(0x7F);
        assert!(decode_request(&w.finish()).is_err());
        // A Many declaring far more plans than the frame holds must fail
        // on truncation, not allocate.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 16);
        w.put_u8(OP_PLAN);
        w.put_bytes(b"r");
        w.put_u8(PLAN_MANY);
        w.put_u64(u64::MAX / 2);
        assert!(decode_request(&w.finish()).is_err());
        // Nesting past the depth cap is refused (the executor would
        // reject the plan anyway; the decoder must not recurse forever).
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 256);
        w.put_u8(OP_PLAN);
        w.put_bytes(b"r");
        for _ in 0..(MAX_PLAN_DEPTH + 2) {
            w.put_u8(PLAN_MANY);
            w.put_u64(1);
        }
        w.put_u8(PLAN_TOTAL);
        let err = decode_request(&w.finish()).expect_err("depth cap must fire");
        assert!(err.0.contains("depth"), "{err}");
        // A bad presence byte in an Od plan is a named error.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 16);
        w.put_u8(OP_PLAN);
        w.put_bytes(b"r");
        w.put_u8(PLAN_OD);
        w.put_u8(9);
        assert!(decode_request(&w.finish()).is_err());
        // A drill-down level past u32 is a named overflow, not a wrap.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 32);
        w.put_u8(OP_PLAN);
        w.put_bytes(b"r");
        w.put_u8(PLAN_DRILL_DOWN);
        w.put_u64(u64::MAX);
        w.put_u8(PLAN_TOTAL);
        let err = decode_request(&w.finish()).expect_err("level overflow must fire");
        assert!(err.0.contains("drill-down level overflows"), "{err}");
        // Every truncation of a drill-down plan frame is an error too.
        let good = encode_request(&Request::Plan {
            release: "r".into(),
            plan: QueryPlan::DrillDown {
                level: 2,
                plan: Box::new(QueryPlan::Total),
            },
        });
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "drill cut {cut}");
        }
        // A top-k answer cell pointing outside its declared dims is
        // refused on decode.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 64);
        w.put_u8(OP_ANSWER);
        w.put_u8(ANSWER_TOP_K);
        w.put_usize_slice(&[2, 2]);
        w.put_u64(1);
        w.put_u64(99); // flat index ≥ 4
        w.put_f64(1.0);
        let err = decode_response(&w.finish()).expect_err("index check must fire");
        assert!(err.0.contains("out of domain"), "{err}");
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Answer {
                answer: Answer::Value { value: -12.25 },
            },
            Response::Releases {
                releases: vec![ReleaseInfo {
                    name: "city".into(),
                    version: 7,
                    mechanism: "EBP".into(),
                    epsilon: 0.5,
                    domain: vec![16, 16],
                    released_values: 256,
                }],
            },
            Response::Stats {
                stats: sample_snapshot(),
            },
            Response::Error {
                message: "unknown release 'x'".into(),
            },
        ];
        for resp in &resps {
            assert_eq!(&round_trip_response(resp), resp);
        }
    }

    /// A small snapshot covering every family kind, labelled and bare
    /// samples, and a summary's suffixed sample names.
    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.family("dpod_engine_memo_hits_total", "hits", MetricKind::Counter)
            .sample(&[("memo", "pyramid")], 8.0)
            .sample(&[("memo", "encoded")], 11.0);
        snap.family("dpod_release_epsilon", "eps", MetricKind::Gauge)
            .sample(&[("release", "ci\"ty")], 0.5);
        snap.family("dpod_request_stage_nanoseconds", "lat", MetricKind::Summary)
            .sample(&[("stage", "execute"), ("quantile", "0.99")], 3_600.0)
            .samples
            .push(dpod_obs::Sample {
                name: "dpod_request_stage_nanoseconds_count".into(),
                labels: vec![("stage".into(), "execute".into())],
                value: 99.0,
            });
        snap.family("dpod_catalog_releases", "releases", MetricKind::Gauge);
        snap
    }

    /// Opcodes with no meaning (the range-list kinds and the fixed-field
    /// stats frame that plans and `0x88` snapshots replaced) are refused
    /// with an error naming the opcode, never misread as another kind.
    #[test]
    fn removed_opcodes_are_refused_by_name() {
        let frame = |op: u8| {
            let mut w = writer(16, op);
            w.put_bytes(b"city");
            w.put_u64(1);
            w.finish().to_vec()
        };
        for op in [0x01u8, 0x02, 0x06] {
            let err = decode_request(&frame(op)).expect_err("request opcode must be refused");
            assert_eq!(err.0, format!("unknown request opcode {op:#04x}"));
        }
        for op in [0x81u8, 0x82, 0x84, 0x86] {
            let err = decode_response(&frame(op)).expect_err("response opcode must be refused");
            assert_eq!(err.0, format!("unknown response opcode {op:#04x}"));
        }
    }

    /// A snapshot frame cut anywhere inside a family or a sample is a
    /// named truncation error, never a partial decode.
    #[test]
    fn truncated_snapshot_frames_name_the_field() {
        let full = encode_response(&Response::Stats {
            stats: sample_snapshot(),
        });
        let header = 6; // magic + version + opcode
        for cut in header..full.len() {
            let err = decode_response(&full[..cut]).expect_err("truncation must fail");
            assert!(err.0.contains("truncated"), "cut {cut}: {err}");
        }
        // Cuts inside the first family's help, the last (empty)
        // family's sample count and a sample's value name those fields.
        let name = b"dpod_engine_memo_hits_total";
        let help_at = full.windows(name.len()).position(|w| w == name).unwrap() + name.len();
        let err = decode_response(&full[..help_at + 8 + 2]).unwrap_err();
        assert!(err.0.contains("family help"), "{err}");
        let err = decode_response(&full[..full.len() - 3]).unwrap_err();
        assert!(err.0.contains("sample count"), "{err}");
        let mut one = Snapshot::default();
        one.family("dpod_x_total", "x", MetricKind::Counter)
            .sample(&[("k", "v")], 1.0);
        let frame = encode_response(&Response::Stats { stats: one });
        let err = decode_response(&frame[..frame.len() - 3]).unwrap_err();
        assert!(err.0.contains("sample value"), "{err}");
        // An unknown family kind is named too.
        let mut bad = full.to_vec();
        let kind_at = help_at + 8 + "hits".len();
        assert_eq!(full[kind_at], 0, "counter tag");
        bad[kind_at] = 9;
        let err = decode_response(&bad).unwrap_err();
        assert!(err.0.contains("unknown family kind"), "{err}");
    }

    #[test]
    fn decode_rejects_malice_without_panicking() {
        let good = encode_request(&Request::List);
        // Truncations at every prefix length.
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut {cut}");
        }
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode_request(&bad).is_err());
        // Wrong version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(decode_request(&bad).is_err());
        // Unknown opcode.
        let mut bad = good.clone();
        bad[5] = 0x77;
        assert!(decode_request(&bad).is_err());
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(decode_request(&bad).is_err());
        // A `Many` declaring far more plans than the frame holds errors
        // on the first missing tag, before allocating for the count.
        let mut w = writer(16, OP_PLAN);
        w.put_bytes(b"r");
        w.put_u8(PLAN_MANY);
        w.put_u64(u64::MAX);
        let err = decode_request(&w.finish()).expect_err("lying count must fail");
        assert!(err.0.contains("plan tag"), "{err}");
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut buf = Vec::new();
        let a = encode_request(&Request::Stats);
        let b = encode_request(&Request::List);
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        // Declared length beyond the cap.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // Mid-frame EOF.
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(&Request::List)).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut &buf[..]).is_err());
        // EOF inside the length prefix is truncation, not a clean close.
        let err = read_frame(&mut &buf[..2]).expect_err("partial prefix");
        assert!(err.0.contains("2 of 4"), "{err}");
        // Writing an oversized body is refused client-side.
        let body = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        assert!(write_frame(&mut Vec::new(), &body).is_err());
    }

    #[test]
    fn varints_round_trip_edge_values() {
        for v in [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos, "t").unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // A truncated, an over-long and an 11-byte varint are named
        // errors.
        let mut pos = 0;
        let err = get_uvarint(&[0x80, 0x00], &mut pos, "t").unwrap_err();
        assert!(err.0.contains("not minimal"), "{err}");
        let mut pos = 0;
        assert!(get_uvarint(&[0x80], &mut pos, "t").is_err());
        let mut pos = 0;
        let over = [0xFFu8; 11];
        assert!(get_uvarint(&over, &mut pos, "t").is_err());
        // 10 bytes whose final byte carries more than u64's last bit.
        let mut pos = 0;
        let mut top_heavy = [0x80u8; 10];
        top_heavy[9] = 0x02;
        assert!(get_uvarint(&top_heavy, &mut pos, "t").is_err());
    }

    #[test]
    fn packed_responses_round_trip() {
        let resps = vec![
            Response::Answer {
                answer: Answer::Marginal {
                    dims: vec![7],
                    values: vec![0.5, 0.5, -1e-300, f64::MAX, 0.0, -0.0, 42.0],
                },
            },
            Response::Answer {
                answer: Answer::Marginal {
                    dims: vec![0],
                    values: vec![],
                },
            },
            Response::Answer {
                answer: Answer::Many {
                    answers: vec![
                        Answer::Marginal {
                            dims: vec![3, 2],
                            values: vec![1.5, -2.0, f64::MAX, 0.0, -1e-300, 7.0],
                        },
                        Answer::Value { value: -0.0 },
                        Answer::TopK {
                            dims: vec![4, 4],
                            cells: vec![TopCell {
                                coords: vec![3, 1],
                                value: 9.25,
                            }],
                        },
                    ],
                },
            },
            Response::Answer {
                answer: Answer::Epochs {
                    epochs: vec![3, 4],
                    answers: vec![
                        Answer::Marginal {
                            dims: vec![2],
                            values: vec![0.25, 0.75],
                        },
                        Answer::Value { value: 1.0 },
                    ],
                },
            },
        ];
        for resp in &resps {
            let packed = encode_response_packed(resp);
            assert_eq!(&decode_response(&packed).unwrap(), resp);
            // NaN-free payloads above: equality is exact bit equality
            // for these values, and the plain decode agrees.
            assert_eq!(&decode_response(&encode_response(resp)).unwrap(), resp);
        }
        // Non-packable variants emit plain bytes from the packed
        // encoder too.
        for resp in [
            Response::Releases { releases: vec![] },
            Response::Stats {
                stats: sample_snapshot(),
            },
            Response::Error {
                message: "x".into(),
            },
        ] {
            assert_eq!(encode_response_packed(&resp), encode_response(&resp));
        }
        // A repeated-value vector collapses to ~1 byte per value.
        let flat = Response::Answer {
            answer: Answer::Marginal {
                dims: vec![1000],
                values: vec![3.25; 1000],
            },
        };
        let packed = encode_response_packed(&flat);
        let plain = encode_response(&flat);
        assert!(
            packed.len() * 4 < plain.len(),
            "packed {} vs plain {}",
            packed.len(),
            plain.len()
        );
        // Truncations inside a packed marginal frame are errors.
        let body = encode_response_packed(&Response::Answer {
            answer: Answer::Marginal {
                dims: vec![3],
                values: vec![1.0, 2.0, 3.0],
            },
        });
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err(), "cut {cut}");
        }
    }
}
