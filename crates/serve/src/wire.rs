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
//! understands the packed (varint) opcodes below, and the server is then
//! free to answer with them. Clients that never set the bit — every
//! pre-packing binary — get byte-identical legacy frames, and a packed
//! client talking to a pre-packing server is refused with the same named
//! version error any unknown version gets (the bit is only meaningful on
//! servers that know to mask it off).
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
//! Request opcodes: `0x01` Query (release, lo, hi), `0x02` Batch
//! (release + packed coordinate array), `0x03` List, `0x04` Stats,
//! `0x05` Plan (release + typed plan tree), `0x06` packed Batch
//! (delta+zigzag varint coordinates).
//! Response opcodes: `0x81` Value, `0x82` Values, `0x83` Releases,
//! `0x85` Answer (typed answer tree), `0x86` packed Values, `0x87`
//! packed Answer, `0x88` Stats snapshot, `0xEF` Error.
//! Opcodes `0x01`–`0x04`/`0x81`–`0x83`/`0xEF` are byte-for-byte
//! unchanged from before the plan algebra existed; `0x05`/`0x85` and
//! the packed trio are additive, so legacy clients are untouched.
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
//! Strings are u64-length-prefixed UTF-8. The fixed-field stats frame
//! this replaces (`0x84`, with its four optional tails) is retired: the
//! decoder rejects it with a named error.
//!
//! ## Packed opcodes (`0x06`/`0x86`/`0x87`)
//!
//! Negotiated via [`WIRE_FEATURE_PACKED`]; emitted only by
//! [`encode_request_packed`]/[`encode_response_packed`], decoded
//! unconditionally (additive, like the plan opcodes). A packed batch
//! flattens its `count × 2d` coordinates and stores each word as the
//! zigzag varint of its delta from the previous word — grid coordinates
//! cluster, so most words collapse to one byte against eight. Dense f64
//! vectors (`Values`, `Marginal` payloads inside a packed `Answer`)
//! store each value as the varint of its IEEE-754 bits XOR the previous
//! value's bits: repeated values collapse to one byte and shared
//! sign/exponent prefixes drop, while worst-case noise costs at most two
//! bytes over raw. Both blob forms are length-prefixed, so the usual
//! bytes-present validation still runs before any allocation.
//!
//! A homogeneous `Batch` — every range with the same dimensionality `d`
//! — is packed as `u16 d`, `u64 count`, then `count × 2d` raw `u64`
//! coordinates (`lo[0..d]` then `hi[0..d]` per range): zero per-range
//! framing, one memcpy-shaped decode. The degenerate heterogeneous case
//! (expressible in JSON, so it must round-trip) uses the sentinel
//! `d = 0xFFFF` and length-prefixed per-range corners. `Values`
//! responses are a `u64` count followed by raw IEEE-754 bit patterns.
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
use std::net::{TcpStream, ToSocketAddrs};

/// Frame magic, shared with the workspace frame registry.
pub use dpod_fmatrix::codec::{WIRE_MAGIC, WIRE_VERSION};

/// Upper bound on one frame body; a peer declaring more is disconnected
/// (64 MiB holds a ~1.3M-range 2-d batch or a ~8M-value response).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Preamble feature bit: the client understands the packed (varint)
/// opcodes and the server may answer with them. Or-ed onto the version
/// byte of the connection preamble only — frame bodies always carry the
/// plain [`WIRE_VERSION`], so every frame stays decodable in isolation.
pub const WIRE_FEATURE_PACKED: u8 = 0x80;

/// Sentinel dimensionality marking a heterogeneous batch encoding.
const MIXED_NDIM: u16 = u16::MAX;

const OP_QUERY: u8 = 0x01;
const OP_BATCH: u8 = 0x02;
const OP_LIST: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_PLAN: u8 = 0x05;
const OP_BATCH_PACKED: u8 = 0x06;
const OP_VALUE: u8 = 0x81;
const OP_VALUES: u8 = 0x82;
const OP_RELEASES: u8 = 0x83;
/// The retired fixed-field stats frame, rejected by name on decode.
const OP_RETIRED_STATS: u8 = 0x84;
const OP_ANSWER: u8 = 0x85;
const OP_VALUES_PACKED: u8 = 0x86;
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

/// A batch's half-open ranges, as `(lo, hi)` corner pairs.
pub type RangeList = Vec<(Vec<usize>, Vec<usize>)>;

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

/// Zigzag-maps a signed delta so small magnitudes of either sign get
/// small unsigned codes (`0 → 0, -1 → 1, 1 → 2, -2 → 3, …`).
#[inline]
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends one LEB128 varint: 7 value bits per byte, high bit set on
/// every byte but the last. A u64 spans at most 10 bytes.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint from `bytes` at `*pos`, advancing the cursor
/// past it.
///
/// # Errors
/// [`WireError`] when the blob ends mid-varint or the encoding carries
/// more than 64 significant bits.
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
            return Ok(v);
        }
        shift += 7;
    }
}

/// Delta-encodes a flat word stream: each word is stored as the zigzag
/// varint of its difference from the previous word (the stream starts
/// from an implicit zero). Clustered coordinate streams collapse to one
/// or two bytes per word.
fn pack_words(words: impl Iterator<Item = u64>) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0u64;
    for w in words {
        put_uvarint(&mut out, zigzag(w.wrapping_sub(prev) as i64));
        prev = w;
    }
    out
}

/// Decodes exactly `count` delta-packed words, rejecting a blob that is
/// short, long, or truncated mid-varint. Every word costs at least one
/// byte, so the up-front count check bounds the allocation.
fn unpack_words(blob: &[u8], count: usize, what: &str) -> Result<Vec<u64>, WireError> {
    if count > blob.len() {
        return Err(WireError(format!(
            "frame field {what}: {count} packed words cannot fit in {} bytes",
            blob.len()
        )));
    }
    let mut pos = 0usize;
    let mut prev = 0u64;
    let mut words = Vec::with_capacity(count);
    for _ in 0..count {
        let delta = unzigzag(get_uvarint(blob, &mut pos, what)?);
        prev = prev.wrapping_add(delta as u64);
        words.push(prev);
    }
    if pos != blob.len() {
        return Err(WireError(format!(
            "frame field {what}: {} trailing bytes after packed words",
            blob.len() - pos
        )));
    }
    Ok(words)
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

/// Decodes exactly `count` XOR-packed f64 values (see [`pack_f64s`]);
/// validation mirrors [`unpack_words`].
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
        Request::Query { release, lo, hi } => {
            let mut w = writer(release.len() + (lo.len() + hi.len() + 4) * 8, OP_QUERY);
            put_wire_str(&mut w, release);
            w.put_usize_slice(lo);
            w.put_usize_slice(hi);
            w.finish().to_vec()
        }
        Request::Batch { release, ranges } => encode_batch(release, ranges),
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

/// Encodes one request preferring the packed opcodes where they apply
/// (today: homogeneous batches). Every other shape falls back to
/// [`encode_request`] byte-identically, so a packed client's non-batch
/// traffic is indistinguishable from a legacy client's.
pub fn encode_request_packed(req: &Request) -> Vec<u8> {
    match req {
        Request::Batch { release, ranges } => encode_batch_packed(release, ranges),
        other => encode_request(other),
    }
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

fn encode_batch(release: &str, ranges: &[(Vec<usize>, Vec<usize>)]) -> Vec<u8> {
    let homogeneous_ndim = match ranges.first() {
        Some((lo, _)) if (lo.len() as u64) < u64::from(MIXED_NDIM) => {
            let d = lo.len();
            ranges
                .iter()
                .all(|(lo, hi)| lo.len() == d && hi.len() == d)
                .then_some(d)
        }
        _ => None,
    };
    match homogeneous_ndim {
        Some(d) => {
            let mut w = writer(release.len() + 32 + ranges.len() * 2 * d * 8, OP_BATCH);
            put_wire_str(&mut w, release);
            w.put_u16(d as u16);
            w.put_u64(ranges.len() as u64);
            for (lo, hi) in ranges {
                for &c in lo {
                    w.put_u64(c as u64);
                }
                for &c in hi {
                    w.put_u64(c as u64);
                }
            }
            w.finish().to_vec()
        }
        None => {
            // Heterogeneous (or empty) batch: length-prefixed corners.
            let mut w = writer(release.len() + 32, OP_BATCH);
            put_wire_str(&mut w, release);
            w.put_u16(MIXED_NDIM);
            w.put_u64(ranges.len() as u64);
            for (lo, hi) in ranges {
                w.put_usize_slice(lo);
                w.put_usize_slice(hi);
            }
            w.finish().to_vec()
        }
    }
}

/// The varint form of [`encode_batch`]: the flattened coordinate stream
/// (lo then hi per range, range after range) is delta+zigzag packed.
/// Heterogeneous and empty batches gain nothing from packing and fall
/// back to the legacy encoding, which every decoder accepts.
fn encode_batch_packed(release: &str, ranges: &[(Vec<usize>, Vec<usize>)]) -> Vec<u8> {
    let homogeneous_ndim = match ranges.first() {
        Some((lo, _)) if (lo.len() as u64) < u64::from(MIXED_NDIM) => {
            let d = lo.len();
            ranges
                .iter()
                .all(|(lo, hi)| lo.len() == d && hi.len() == d)
                .then_some(d)
        }
        _ => None,
    };
    let Some(d) = homogeneous_ndim else {
        return encode_batch(release, ranges);
    };
    let blob = pack_words(
        ranges
            .iter()
            .flat_map(|(lo, hi)| lo.iter().chain(hi.iter()).map(|&c| c as u64)),
    );
    let mut w = writer(release.len() + 32 + blob.len(), OP_BATCH_PACKED);
    put_wire_str(&mut w, release);
    w.put_u16(d as u16);
    w.put_u64(ranges.len() as u64);
    w.put_bytes(&blob);
    w.finish().to_vec()
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
        OP_QUERY => {
            let release = get_wire_str(&mut r, "release")?;
            let lo = r.get_usize_vec("lo")?;
            let hi = r.get_usize_vec("hi")?;
            Request::Query { release, lo, hi }
        }
        OP_BATCH => {
            let release = get_wire_str(&mut r, "release")?;
            let ndim = r.get_u16("batch ndim")?;
            let count = usize::try_from(r.get_u64("batch count")?)
                .map_err(|_| WireError("batch count overflows".into()))?;
            let ranges = if ndim == MIXED_NDIM {
                let mut ranges = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let lo = r.get_usize_vec("batch lo")?;
                    let hi = r.get_usize_vec("batch hi")?;
                    ranges.push((lo, hi));
                }
                ranges
            } else {
                decode_packed_ranges(&mut r, ndim as usize, count)?
            };
            Request::Batch { release, ranges }
        }
        OP_BATCH_PACKED => {
            let release = get_wire_str(&mut r, "release")?;
            let ndim = r.get_u16("batch ndim")? as usize;
            let count = usize::try_from(r.get_u64("batch count")?)
                .map_err(|_| WireError("batch count overflows".into()))?;
            if ndim == 0 && count > MAX_ZERO_DIM_RANGES {
                return Err(WireError(format!(
                    "zero-dimension batch count {count} exceeds limit {MAX_ZERO_DIM_RANGES}"
                )));
            }
            let words_n = count
                .checked_mul(2 * ndim)
                .ok_or_else(|| WireError("batch coordinate count overflows".into()))?;
            let blob = r.get_bytes("packed batch coordinates")?;
            let words = unpack_words(blob, words_n, "packed batch coordinates")?;
            let ranges = if ndim == 0 {
                vec![(Vec::new(), Vec::new()); count]
            } else {
                words
                    .chunks_exact(2 * ndim)
                    .map(|pair| {
                        let lo = pair[..ndim].iter().map(|&w| w as usize).collect();
                        let hi = pair[ndim..].iter().map(|&w| w as usize).collect();
                        (lo, hi)
                    })
                    .collect()
            };
            Request::Batch { release, ranges }
        }
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

/// Most zero-dimension ranges accepted in one packed batch. Zero-width
/// ranges occupy no payload bytes, so the usual bytes-present check
/// cannot bound `count`; without this cap an adversarial ~30-byte frame
/// declaring `count = u64::MAX` would panic the decode on allocation.
/// The limit mirrors what the NDJSON path could physically carry: ~8
/// bytes per `[[],[]]` under its 8 MiB line cap.
const MAX_ZERO_DIM_RANGES: usize = 1 << 20;

/// Reads `count × 2·ndim` raw u64 coordinates. The byte budget is
/// checked against the frame remainder before the vectors allocate.
fn decode_packed_ranges(
    r: &mut FrameReader<'_>,
    ndim: usize,
    count: usize,
) -> Result<RangeList, WireError> {
    if ndim == 0 && count > MAX_ZERO_DIM_RANGES {
        return Err(WireError(format!(
            "zero-dimension batch count {count} exceeds limit {MAX_ZERO_DIM_RANGES}"
        )));
    }
    let words = count
        .checked_mul(2 * ndim)
        .ok_or_else(|| WireError("batch coordinate count overflows".into()))?;
    let raw = r.get_raw_u64s(words, "batch coordinates")?;
    let mut ranges = Vec::with_capacity(count);
    let mut it = raw;
    for _ in 0..count {
        let (head, tail) = it.split_at(2 * ndim * 8);
        it = tail;
        let coord = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8 bytes")) as usize;
        let lo = head[..ndim * 8].chunks_exact(8).map(coord).collect();
        let hi = head[ndim * 8..].chunks_exact(8).map(coord).collect();
        ranges.push((lo, hi));
    }
    Ok(ranges)
}

/// Encodes one response as a `DPRB` frame body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Value { value } => {
            let mut w = writer(8, OP_VALUE);
            w.put_f64(*value);
            w.finish().to_vec()
        }
        Response::Values { values } => {
            let mut w = writer(8 + values.len() * 8, OP_VALUES);
            w.put_f64_slice(values);
            w.finish().to_vec()
        }
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

/// Encodes one response preferring the packed opcodes where they apply
/// (dense value vectors and answer trees). Every other variant falls
/// back to [`encode_response`] byte-identically; emit these frames only
/// to peers that advertised [`WIRE_FEATURE_PACKED`].
pub fn encode_response_packed(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Values { values } => {
            let blob = pack_f64s(values);
            let mut w = writer(16 + blob.len(), OP_VALUES_PACKED);
            w.put_u64(values.len() as u64);
            w.put_bytes(&blob);
            w.finish().to_vec()
        }
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
        OP_VALUE => Response::Value {
            value: r.get_f64("value")?,
        },
        OP_VALUES => Response::Values {
            values: r.get_f64_vec("values")?,
        },
        OP_VALUES_PACKED => {
            let count = usize::try_from(r.get_u64("values count")?)
                .map_err(|_| WireError("values count overflows".into()))?;
            let blob = r.get_bytes("packed values")?;
            Response::Values {
                values: unpack_f64s(blob, count, "packed values")?,
            }
        }
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
        OP_RETIRED_STATS => {
            return Err(WireError(
                "response opcode 0x84 (fixed-field stats frame) is retired; \
                 stats travel as 0x88 snapshot frames"
                    .into(),
            ))
        }
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

/// A blocking `DPRB` client over one TCP connection.
///
/// Sends the preamble on connect; thereafter [`Client::request`] is one
/// synchronous round trip and [`Client::send`]/[`Client::receive`]
/// support pipelining (write many, then read the answers back in order).
#[derive(Debug)]
pub struct Client {
    reader: std::io::BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
    packed: bool,
}

impl Client {
    /// Connects and speaks the `DPRB` preamble. Whether the packed
    /// opcodes are negotiated follows the `DPOD_WIRE_PACKED` environment
    /// variable (`1`/`true` to enable; default off, the legacy
    /// preamble); use [`Self::connect_with`] to pick explicitly.
    ///
    /// # Errors
    /// IO errors from connect or the preamble write.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let packed = std::env::var("DPOD_WIRE_PACKED")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        Self::connect_with(addr, packed)
    }

    /// Connects, advertising [`WIRE_FEATURE_PACKED`] in the preamble
    /// when `packed` is set; the client then sends packed batch frames
    /// and the server is free to answer with packed responses.
    ///
    /// # Errors
    /// IO errors from connect or the preamble write.
    pub fn connect_with(addr: impl ToSocketAddrs, packed: bool) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Batch frames span many segments; without NODELAY the tail of
        // a frame can sit behind Nagle waiting on a delayed ACK.
        stream.set_nodelay(true)?;
        let mut writer = std::io::BufWriter::new(stream.try_clone()?);
        writer.write_all(WIRE_MAGIC)?;
        let version = if packed {
            WIRE_VERSION | WIRE_FEATURE_PACKED
        } else {
            WIRE_VERSION
        };
        writer.write_all(&[version])?;
        Ok(Client {
            reader: std::io::BufReader::new(stream),
            writer,
            packed,
        })
    }

    /// Whether this connection negotiated the packed opcodes.
    #[must_use]
    pub fn is_packed(&self) -> bool {
        self.packed
    }

    /// Queues one request (buffered; flushed by [`Self::receive`]).
    ///
    /// # Errors
    /// [`WireError`] on encode or IO failure.
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        let body = if self.packed {
            encode_request_packed(req)
        } else {
            encode_request(req)
        };
        write_frame(&mut self.writer, &body)
    }

    /// Flushes queued requests and reads the next response.
    ///
    /// # Errors
    /// [`WireError`] on IO failure, a server disconnect, or a malformed
    /// response frame.
    pub fn receive(&mut self) -> Result<Response, WireError> {
        self.writer.flush()?;
        let body = read_frame(&mut self.reader)?
            .ok_or_else(|| WireError("server closed the connection".into()))?;
        decode_response(&body)
    }

    /// One synchronous request/response round trip.
    ///
    /// # Errors
    /// [`WireError`] as for [`Self::send`] and [`Self::receive`].
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.receive()
    }

    /// Answers a batch of ranges against `release`, unwrapping the
    /// values vector.
    ///
    /// # Errors
    /// [`WireError`] on transport failure or a server-side
    /// [`Response::Error`].
    pub fn batch(&mut self, release: &str, ranges: RangeList) -> Result<Vec<f64>, WireError> {
        match self.request(&Request::Batch {
            release: release.to_string(),
            ranges,
        })? {
            Response::Values { values } => Ok(values),
            Response::Error { message } => Err(WireError(message)),
            other => Err(WireError(format!("unexpected response {other:?}"))),
        }
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
            Request::Query {
                release: "city".into(),
                lo: vec![0, 0],
                hi: vec![4, 4],
            },
            Request::Batch {
                release: "city".into(),
                ranges: vec![(vec![0, 1], vec![2, 3]), (vec![4, 5], vec![6, 7])],
            },
            // Heterogeneous dims and degenerate corners must survive too.
            Request::Batch {
                release: "x".into(),
                ranges: vec![(vec![0], vec![1]), (vec![0, 0], vec![1, 1])],
            },
            Request::Batch {
                release: "x".into(),
                ranges: vec![(vec![], vec![]), (vec![9], vec![2])],
            },
            Request::Batch {
                release: "empty".into(),
                ranges: vec![],
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
            Response::Value { value: -12.25 },
            Response::Values {
                values: vec![0.5, f64::MAX, -1e-300],
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

    /// The retired fixed-field stats opcode is refused by name, not
    /// misread as a snapshot or reported as an unknown opcode.
    #[test]
    fn retired_stats_opcode_is_rejected_by_name() {
        let mut w = writer(16, OP_RETIRED_STATS);
        w.put_u64(1);
        let err = decode_response(&w.finish()).expect_err("0x84 must be refused");
        assert!(err.0.contains("0x84") && err.0.contains("retired"), "{err}");
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
        // A batch declaring far more coordinates than the frame holds
        // must error before allocating.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 64);
        w.put_u8(OP_BATCH);
        w.put_bytes(b"r");
        w.put_u16(2);
        w.put_u64(u64::MAX / 64);
        let body = w.finish();
        assert!(decode_request(&body).is_err());
        // Zero-width ranges consume no payload bytes, so the count cap —
        // not the bytes-present check — must stop an adversarial count
        // (u64::MAX here would otherwise panic on allocation).
        for count in [u64::MAX, u64::MAX / 64, (MAX_ZERO_DIM_RANGES as u64) + 1] {
            let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 64);
            w.put_u8(OP_BATCH);
            w.put_bytes(b"r");
            w.put_u16(0);
            w.put_u64(count);
            let body = w.finish();
            let err = decode_request(&body).expect_err("count cap must fire");
            assert!(err.0.contains("zero-dimension"), "{err}");
        }
        // A modest zero-dimension batch still round-trips.
        let req = Request::Batch {
            release: "r".into(),
            ranges: vec![(vec![], vec![]); 100],
        };
        assert_eq!(round_trip_request(&req), req);
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
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // A truncated varint and an 11-byte varint are named errors.
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
    fn packed_requests_round_trip_and_shrink() {
        // A dense homogeneous batch round-trips through the packed
        // opcode and lands well under half the legacy size.
        let ranges: Vec<(Vec<usize>, Vec<usize>)> = (0..500)
            .map(|i| {
                (
                    vec![i % 64, (i * 7) % 64],
                    vec![i % 64 + 1, (i * 7) % 64 + 3],
                )
            })
            .collect();
        let req = Request::Batch {
            release: "city".into(),
            ranges,
        };
        let packed = encode_request_packed(&req);
        let legacy = encode_request(&req);
        assert_eq!(decode_request(&packed).unwrap(), req);
        assert_eq!(decode_request(&legacy).unwrap(), req);
        assert!(
            packed.len() * 2 < legacy.len(),
            "packed {} vs legacy {}",
            packed.len(),
            legacy.len()
        );
        // Truncations at every prefix length still error, never panic.
        for cut in 0..packed.len().min(64) {
            assert!(decode_request(&packed[..cut]).is_err(), "cut {cut}");
        }
        // Heterogeneous and empty batches fall back to legacy bytes.
        for req in [
            Request::Batch {
                release: "x".into(),
                ranges: vec![(vec![0], vec![1]), (vec![0, 0], vec![1, 1])],
            },
            Request::Batch {
                release: "empty".into(),
                ranges: vec![],
            },
            Request::Query {
                release: "city".into(),
                lo: vec![0, 0],
                hi: vec![4, 4],
            },
            Request::List,
        ] {
            assert_eq!(encode_request_packed(&req), encode_request(&req));
        }
        // Extreme coordinates survive the zigzag round trip.
        let req = Request::Batch {
            release: "x".into(),
            ranges: vec![(vec![usize::MAX, 0], vec![0, usize::MAX])],
        };
        assert_eq!(decode_request(&encode_request_packed(&req)).unwrap(), req);
        // Zero-dimension packed batches obey the same count cap.
        let req = Request::Batch {
            release: "r".into(),
            ranges: vec![(vec![], vec![]); 100],
        };
        assert_eq!(decode_request(&encode_request_packed(&req)).unwrap(), req);
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 64);
        w.put_u8(OP_BATCH_PACKED);
        w.put_bytes(b"r");
        w.put_u16(0);
        w.put_u64(u64::MAX);
        let err = decode_request(&w.finish()).expect_err("count cap must fire");
        assert!(err.0.contains("zero-dimension"), "{err}");
        // A declared word count the blob cannot hold errors before any
        // allocation.
        let mut w = FrameWriter::with_capacity(WIRE_MAGIC, WIRE_VERSION, 64);
        w.put_u8(OP_BATCH_PACKED);
        w.put_bytes(b"r");
        w.put_u16(2);
        w.put_u64(u64::MAX / 64);
        w.put_bytes(&[0, 0, 0]);
        assert!(decode_request(&w.finish()).is_err());
    }

    #[test]
    fn packed_responses_round_trip() {
        let resps = vec![
            Response::Values {
                values: vec![0.5, 0.5, -1e-300, f64::MAX, 0.0, -0.0, 42.0],
            },
            Response::Values { values: vec![] },
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
            // for these values, and legacy decode agrees.
            assert_eq!(&decode_response(&encode_response(resp)).unwrap(), resp);
        }
        // Non-packable variants emit legacy bytes from the packed
        // encoder too.
        for resp in [
            Response::Value { value: -12.25 },
            Response::Error {
                message: "x".into(),
            },
        ] {
            assert_eq!(encode_response_packed(&resp), encode_response(&resp));
        }
        // A repeated-value vector collapses to ~1 byte per value.
        let flat = Response::Values {
            values: vec![3.25; 1000],
        };
        let packed = encode_response_packed(&flat);
        let legacy = encode_response(&flat);
        assert!(
            packed.len() * 4 < legacy.len(),
            "packed {} vs legacy {}",
            packed.len(),
            legacy.len()
        );
        // Truncations inside a packed values frame are errors.
        let body = encode_response_packed(&Response::Values {
            values: vec![1.0, 2.0, 3.0],
        });
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err(), "cut {cut}");
        }
    }
}
