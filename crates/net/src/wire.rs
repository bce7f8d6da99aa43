//! The versioned binary wire codec.
//!
//! Every frame on a node connection is `[header][payload]`:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"DTKN"` |
//! | 4      | 2    | wire version, little-endian u16 ([`WIRE_VERSION`]) |
//! | 6      | 1    | frame kind (one byte per [`Message`] variant) |
//! | 7      | 1    | reserved, must be written as `0` (ignored on decode) |
//! | 8      | 4    | payload length, little-endian u32 |
//! | 12     | n    | payload, layout fixed by the frame kind |
//!
//! All multi-byte integers are little-endian; `f64` weights travel as their
//! IEEE-754 bit patterns ([`f64::to_bits`]) so round-trips are bit-exact.
//! Decoding never panics: malformed input — truncated frames, bad magic,
//! unknown tags, inverted windows — surfaces as a typed [`WireError`].
//!
//! # Version policy
//!
//! There is exactly one version constant, [`WIRE_VERSION`], and no
//! negotiation: a decoder rejects any frame whose version field differs
//! from its own with [`WireError::UnsupportedVersion`]. Any change to a
//! payload layout — adding a field, reordering, changing a width — must
//! bump [`WIRE_VERSION`]. Mixed-version clusters are unsupported by
//! design; redeploy all nodes together.

use std::io::{Read, Write};
use std::time::Duration;

use durable_topk::{
    Algorithm, DurableQuery, FallbackReason, QueryError, QueryStats, ScorerError, ScorerSpec,
    ServeError, ServeRequest, ServeResponse, ServeStats, Window,
};

use crate::node::NodeRanges;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"DTKN";

/// The protocol version this build speaks (see the module docs for the
/// bump policy). Decoders reject every other value.
pub const WIRE_VERSION: u16 = 2;

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a payload's declared length; larger declarations are
/// rejected before any allocation so a corrupt length prefix cannot OOM
/// the receiver.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// One frame on a node connection: the request/response vocabulary of the
/// [`Node`](crate::Node) RPC surface.
#[derive(Debug, Clone)]
pub enum Message {
    /// A durable top-k query in the *receiving node's local coordinates*.
    Query(ServeRequest),
    /// Successful answer to a [`Message::Query`] (records are node-local).
    QueryOk(ServeResponse),
    /// The node could not execute the query.
    QueryErr(ServeError),
    /// Ask the node for its serving counters.
    StatsRequest,
    /// Answer to [`Message::StatsRequest`].
    Stats(ServeStats),
    /// Ask the node for its ownership descriptor.
    RangesRequest,
    /// Answer to [`Message::RangesRequest`].
    Ranges(NodeRanges),
}

impl Message {
    /// The human-readable frame-kind name (error messages, protocol
    /// mismatch reports).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Query(_) => "query",
            Message::QueryOk(_) => "query-ok",
            Message::QueryErr(_) => "query-err",
            Message::StatsRequest => "stats-request",
            Message::Stats(_) => "stats",
            Message::RangesRequest => "ranges-request",
            Message::Ranges(_) => "ranges",
        }
    }
}

/// Why encoding or decoding a frame failed. Decoders return these instead
/// of panicking, whatever the input bytes.
#[derive(Debug)]
pub enum WireError {
    /// The buffer ends before the frame (or a field inside it) does.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// The version field the frame carried.
        got: u16,
    },
    /// The frame-kind byte maps to no [`Message`] variant.
    UnknownKind(u8),
    /// An enum tag inside a payload maps to no variant.
    UnknownTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A declared length exceeds [`MAX_PAYLOAD`] or the platform's
    /// addressable size.
    LengthOverflow(u64),
    /// A payload field holds a structurally impossible value (for example
    /// an inverted query window).
    InvalidField(&'static str),
    /// The payload is longer than its content (trailing bytes after the
    /// last field).
    TrailingBytes,
    /// A [`ScorerSpec::Custom`] trait object cannot be serialized; route
    /// opaque scorers to an in-process engine instead.
    OpaqueScorer,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// The underlying socket failed mid-frame.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got} (this build speaks {WIRE_VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::LengthOverflow(n) => write!(f, "declared length {n} overflows the cap"),
            WireError::InvalidField(what) => write!(f, "invalid {what} field"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
            WireError::OpaqueScorer => {
                write!(f, "custom scorers are opaque and cannot cross the wire")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian primitives (crates/store/src/codec.rs idiom, writer side
// added since frames are built incrementally).

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_duration(out: &mut Vec<u8>, d: Duration) {
    push_u64(out, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

/// Bounds-checked cursor over a payload slice; every accessor returns
/// [`WireError::Truncated`] instead of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn duration(&mut self) -> Result<Duration, WireError> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn usize_from(v: u64) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::LengthOverflow(v))
}

// ---------------------------------------------------------------------------
// Per-type payload codecs.

fn alg_tag(alg: Algorithm) -> u8 {
    match alg {
        Algorithm::TBase => 0,
        Algorithm::THop => 1,
        Algorithm::SBase => 2,
        Algorithm::SBand => 3,
        Algorithm::SHop => 4,
    }
}

fn alg_from(tag: u8) -> Result<Algorithm, WireError> {
    Ok(match tag {
        0 => Algorithm::TBase,
        1 => Algorithm::THop,
        2 => Algorithm::SBase,
        3 => Algorithm::SBand,
        4 => Algorithm::SHop,
        _ => return Err(WireError::UnknownTag { what: "algorithm", tag }),
    })
}

fn encode_scorer(out: &mut Vec<u8>, scorer: &ScorerSpec) -> Result<(), WireError> {
    let weights = match scorer {
        ScorerSpec::Uniform => {
            out.push(0);
            return Ok(());
        }
        ScorerSpec::Linear(w) => {
            out.push(1);
            w
        }
        ScorerSpec::Cosine(w) => {
            out.push(2);
            w
        }
        ScorerSpec::Custom(_) => return Err(WireError::OpaqueScorer),
    };
    let len = u32::try_from(weights.len()).map_err(|_| WireError::LengthOverflow(u64::MAX))?;
    push_u32(out, len);
    for &w in weights {
        push_f64(out, w);
    }
    Ok(())
}

fn decode_scorer(r: &mut Reader<'_>) -> Result<ScorerSpec, WireError> {
    let tag = r.u8()?;
    if tag == 0 {
        return Ok(ScorerSpec::Uniform);
    }
    if tag > 2 {
        return Err(WireError::UnknownTag { what: "scorer", tag });
    }
    let len = r.u32()? as usize;
    // Each weight occupies 8 payload bytes, so a hostile length prefix is
    // caught by the cursor before the allocation grows past the payload.
    if len.checked_mul(8).map_or(true, |bytes| bytes > r.buf.len()) {
        return Err(WireError::Truncated);
    }
    let mut weights = Vec::with_capacity(len);
    for _ in 0..len {
        weights.push(r.f64()?);
    }
    Ok(if tag == 1 { ScorerSpec::Linear(weights) } else { ScorerSpec::Cosine(weights) })
}

fn encode_request(out: &mut Vec<u8>, req: &ServeRequest) -> Result<(), WireError> {
    out.push(alg_tag(req.alg));
    push_u64(out, req.query.k as u64);
    push_u32(out, req.query.tau);
    push_u32(out, req.query.interval.start());
    push_u32(out, req.query.interval.end());
    encode_scorer(out, &req.scorer)
}

fn decode_request(r: &mut Reader<'_>) -> Result<ServeRequest, WireError> {
    let alg = alg_from(r.u8()?)?;
    let k = usize_from(r.u64()?)?;
    let tau = r.u32()?;
    let start = r.u32()?;
    let end = r.u32()?;
    if start > end {
        return Err(WireError::InvalidField("query window"));
    }
    let scorer = decode_scorer(r)?;
    Ok(ServeRequest {
        alg,
        query: DurableQuery { k, tau, interval: Window::new(start, end) },
        scorer,
    })
}

fn fallback_tag(f: Option<FallbackReason>) -> u8 {
    match f {
        None => 0,
        Some(FallbackReason::MissingSkybandIndex) => 1,
        Some(FallbackReason::SkybandBoundExceeded) => 2,
        Some(FallbackReason::NonMonotoneScorer) => 3,
    }
}

fn fallback_from(tag: u8) -> Result<Option<FallbackReason>, WireError> {
    Ok(match tag {
        0 => None,
        1 => Some(FallbackReason::MissingSkybandIndex),
        2 => Some(FallbackReason::SkybandBoundExceeded),
        3 => Some(FallbackReason::NonMonotoneScorer),
        _ => return Err(WireError::UnknownTag { what: "fallback", tag }),
    })
}

fn encode_query_stats(out: &mut Vec<u8>, s: &QueryStats) {
    push_u64(out, s.durability_checks);
    push_u64(out, s.refill_queries);
    push_u64(out, s.candidates);
    push_u64(out, s.blocked_skips);
    push_u64(out, s.cold_page_hits);
    push_u64(out, s.cache_hits);
    push_u64(out, s.cache_misses);
    out.push(fallback_tag(s.fallback));
}

fn decode_query_stats(r: &mut Reader<'_>) -> Result<QueryStats, WireError> {
    Ok(QueryStats {
        durability_checks: r.u64()?,
        refill_queries: r.u64()?,
        candidates: r.u64()?,
        blocked_skips: r.u64()?,
        cold_page_hits: r.u64()?,
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        fallback: fallback_from(r.u8()?)?,
    })
}

fn encode_response(out: &mut Vec<u8>, resp: &ServeResponse) -> Result<(), WireError> {
    let count =
        u32::try_from(resp.records.len()).map_err(|_| WireError::LengthOverflow(u64::MAX))?;
    push_u32(out, count);
    for &id in &resp.records {
        push_u32(out, id);
    }
    encode_query_stats(out, &resp.stats);
    push_duration(out, resp.queued);
    push_duration(out, resp.service);
    Ok(())
}

fn decode_response(r: &mut Reader<'_>) -> Result<ServeResponse, WireError> {
    let count = r.u32()? as usize;
    if count.checked_mul(4).map_or(true, |bytes| bytes > r.buf.len()) {
        return Err(WireError::Truncated);
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(r.u32()?);
    }
    let stats = decode_query_stats(r)?;
    let queued = r.duration()?;
    let service = r.duration()?;
    Ok(ServeResponse { records, stats, queued, service })
}

fn encode_query_error(out: &mut Vec<u8>, e: &QueryError) {
    match e {
        QueryError::ZeroK => out.push(0),
        QueryError::ZeroTau => out.push(1),
        QueryError::EmptyDataset => out.push(2),
        QueryError::IntervalOutOfRange { start, last } => {
            out.push(3);
            push_u32(out, *start);
            push_u32(out, *last);
        }
        QueryError::TauExceedsOverlap { tau, max_tau } => {
            out.push(4);
            push_u32(out, *tau);
            push_u32(out, *max_tau);
        }
        QueryError::Arity { expected, got } => {
            out.push(5);
            push_u64(out, *expected as u64);
            push_u64(out, *got as u64);
        }
        QueryError::InvalidScorer(why) => {
            out.push(6);
            out.push(match why {
                ScorerError::Empty => 0,
                ScorerError::InvalidWeight => 1,
                ScorerError::NoDirection => 2,
            });
        }
        QueryError::NonFinite { attribute } => {
            out.push(7);
            push_u64(out, *attribute as u64);
        }
    }
}

fn decode_query_error(r: &mut Reader<'_>) -> Result<QueryError, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => QueryError::ZeroK,
        1 => QueryError::ZeroTau,
        2 => QueryError::EmptyDataset,
        3 => QueryError::IntervalOutOfRange { start: r.u32()?, last: r.u32()? },
        4 => QueryError::TauExceedsOverlap { tau: r.u32()?, max_tau: r.u32()? },
        5 => QueryError::Arity { expected: usize_from(r.u64()?)?, got: usize_from(r.u64()?)? },
        6 => QueryError::InvalidScorer(match r.u8()? {
            0 => ScorerError::Empty,
            1 => ScorerError::InvalidWeight,
            2 => ScorerError::NoDirection,
            tag => return Err(WireError::UnknownTag { what: "scorer error", tag }),
        }),
        7 => QueryError::NonFinite { attribute: usize_from(r.u64()?)? },
        _ => return Err(WireError::UnknownTag { what: "query error", tag }),
    })
}

fn encode_serve_error(out: &mut Vec<u8>, e: &ServeError) -> Result<(), WireError> {
    match e {
        ServeError::QueueFull => out.push(0),
        ServeError::ShuttingDown => out.push(1),
        ServeError::Query(qe) => {
            out.push(2);
            encode_query_error(out, qe);
        }
        ServeError::Panicked(msg) => {
            out.push(3);
            let len = u32::try_from(msg.len()).map_err(|_| WireError::LengthOverflow(u64::MAX))?;
            push_u32(out, len);
            out.extend_from_slice(msg.as_bytes());
        }
    }
    Ok(())
}

fn decode_serve_error(r: &mut Reader<'_>) -> Result<ServeError, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => ServeError::QueueFull,
        1 => ServeError::ShuttingDown,
        2 => ServeError::Query(decode_query_error(r)?),
        3 => {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let msg = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
            ServeError::Panicked(msg.to_string())
        }
        _ => return Err(WireError::UnknownTag { what: "serve error", tag }),
    })
}

fn encode_serve_stats(out: &mut Vec<u8>, s: &ServeStats) {
    push_u64(out, s.enqueued);
    push_u64(out, s.completed);
    push_u64(out, s.rejected);
    push_u64(out, s.failed);
    push_u64(out, s.depth as u64);
    push_u64(out, s.max_depth);
    push_duration(out, s.total_queued);
    push_duration(out, s.total_service);
    push_u64(out, s.cold_page_hits);
    push_u64(out, s.subscriptions as u64);
    push_u64(out, s.refreshes);
    push_u64(out, s.fast_path_skips);
    push_u64(out, s.full_recomputes);
    push_u64(out, s.max_refresh_inflight);
    push_u64(out, s.cache_hits);
    push_u64(out, s.cache_misses);
    push_u64(out, s.cache_evictions);
    push_u64(out, s.cache_bytes);
}

fn decode_serve_stats(r: &mut Reader<'_>) -> Result<ServeStats, WireError> {
    Ok(ServeStats {
        enqueued: r.u64()?,
        completed: r.u64()?,
        rejected: r.u64()?,
        failed: r.u64()?,
        depth: usize_from(r.u64()?)?,
        max_depth: r.u64()?,
        total_queued: r.duration()?,
        total_service: r.duration()?,
        cold_page_hits: r.u64()?,
        subscriptions: usize_from(r.u64()?)?,
        refreshes: r.u64()?,
        fast_path_skips: r.u64()?,
        full_recomputes: r.u64()?,
        max_refresh_inflight: r.u64()?,
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        cache_evictions: r.u64()?,
        cache_bytes: r.u64()?,
    })
}

fn encode_ranges(out: &mut Vec<u8>, ranges: &NodeRanges) -> Result<(), WireError> {
    push_u32(out, ranges.ext_lo);
    push_u32(out, ranges.lo);
    push_u32(out, ranges.hi);
    push_u32(out, ranges.max_tau);
    push_u64(out, ranges.dim as u64);
    let count =
        u32::try_from(ranges.shards.len()).map_err(|_| WireError::LengthOverflow(u64::MAX))?;
    push_u32(out, count);
    for &(lo, hi) in &ranges.shards {
        push_u32(out, lo);
        push_u32(out, hi);
    }
    Ok(())
}

fn decode_ranges(r: &mut Reader<'_>) -> Result<NodeRanges, WireError> {
    let ext_lo = r.u32()?;
    let lo = r.u32()?;
    let hi = r.u32()?;
    let max_tau = r.u32()?;
    let dim = usize_from(r.u64()?)?;
    let count = r.u32()? as usize;
    if count.checked_mul(8).map_or(true, |bytes| bytes > r.buf.len()) {
        return Err(WireError::Truncated);
    }
    let mut shards = Vec::with_capacity(count);
    for _ in 0..count {
        shards.push((r.u32()?, r.u32()?));
    }
    Ok(NodeRanges { ext_lo, lo, hi, max_tau, dim, shards })
}

// ---------------------------------------------------------------------------
// Frame assembly.

fn kind_byte(msg: &Message) -> u8 {
    match msg {
        Message::Query(_) => 1,
        Message::QueryOk(_) => 2,
        Message::QueryErr(_) => 3,
        Message::StatsRequest => 4,
        Message::Stats(_) => 5,
        Message::RangesRequest => 6,
        Message::Ranges(_) => 7,
    }
}

/// Encodes `msg` into one complete frame (header plus payload).
///
/// The only encodable input that fails is a [`ScorerSpec::Custom`] query —
/// opaque trait objects cannot cross the wire, by design
/// ([`WireError::OpaqueScorer`]).
pub fn encode_message(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    match msg {
        Message::Query(req) => encode_request(&mut payload, req)?,
        Message::QueryOk(resp) => encode_response(&mut payload, resp)?,
        Message::QueryErr(e) => encode_serve_error(&mut payload, e)?,
        Message::StatsRequest | Message::RangesRequest => {}
        Message::Stats(s) => encode_serve_stats(&mut payload, s),
        Message::Ranges(ranges) => encode_ranges(&mut payload, ranges)?,
    }
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(WireError::LengthOverflow(payload.len() as u64));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    push_u16(&mut frame, WIRE_VERSION);
    frame.push(kind_byte(msg));
    frame.push(0); // reserved
    push_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Parses a 12-byte header, returning `(kind, payload_len)`.
fn parse_header(header: &[u8]) -> Result<(u8, usize), WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let kind = header[6];
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::LengthOverflow(len as u64));
    }
    Ok((kind, len as usize))
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        1 => Message::Query(decode_request(&mut r)?),
        2 => Message::QueryOk(decode_response(&mut r)?),
        3 => Message::QueryErr(decode_serve_error(&mut r)?),
        4 => Message::StatsRequest,
        5 => Message::Stats(decode_serve_stats(&mut r)?),
        6 => Message::RangesRequest,
        7 => Message::Ranges(decode_ranges(&mut r)?),
        _ => return Err(WireError::UnknownKind(kind)),
    };
    r.done()?;
    Ok(msg)
}

/// Decodes one frame from the front of `bytes`, returning the message and
/// the number of bytes consumed. Never panics on malformed input.
pub fn decode_message(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    let (kind, len) = parse_header(bytes)?;
    let total = HEADER_LEN + len;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    let msg = decode_payload(kind, &bytes[HEADER_LEN..total])?;
    Ok((msg, total))
}

/// Writes one frame to `w`, flushing it.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<(), WireError> {
    let frame = encode_message(msg)?;
    w.write_all(&frame).map_err(WireError::Io)?;
    w.flush().map_err(WireError::Io)
}

/// Reads exactly one frame from `r` (blocking until the header and the
/// declared payload arrive, or the stream errors).
pub fn read_message<R: Read>(r: &mut R) -> Result<Message, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(WireError::Io)?;
    let (kind, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(WireError::Io)?;
    decode_payload(kind, &payload)
}
