//! Binary serialization of [`EventTrace`] — the payload format of the
//! durable segment store.
//!
//! An [`EventTrace`] is the expensive artifact of the two-phase engine
//! (recording walks the whole reference stream; replay is 20–40x
//! cheaper), so `cachetime-disk` persists traces across server restarts.
//! This module defines the byte-exact payload (version 2):
//!
//! ```text
//! size  field
//!    1  payload version (2)
//!  ~70  organization: both L1 configurations, split flag, translation
//! ~260  behavior: refs, couplets, both L1 statistics, MMU statistics
//!    8  op count
//! rest  the trace's packed op stream, byte for byte as held in memory
//! ```
//!
//! Every header field is little-endian and fixed-width. The op stream is
//! the trace's own representation (the layout is documented with the
//! writer in `opstream.rs`), so `encode` is the header plus one copy and
//! `decode` is the header, one check pass over the ops and one copy. A
//! version-1 payload (one fixed-width record per op) is rejected as an
//! unsupported version; recording is deterministic, so its key is simply
//! recorded again. No external serialization crate is used — the
//! workspace is zero-dependency by design.
//!
//! Properties the disk layer relies on:
//!
//! * **Round-trip identity**: `decode(encode(t)) == t` for every trace,
//!   so a warm restart replays bit-identically to
//!   [`crate::Simulator::run`]; and `encode(decode(b)) == b` for every
//!   payload `decode` accepts, because a decoded trace holds its op bytes
//!   as given. They need not be the encoder's: a wider field or a set
//!   bit the decoder never reads prices as the ops it decodes to, so `==`
//!   on decoded traces compares bytes, not ops.
//! * **Validated decode**: configurations are rebuilt through the public
//!   builders, and each op is decoded once into a sink that accepts only
//!   ops a walk emits (a hit run that counts something, a couplet with a
//!   half, a read on the ifetch half, fills and victims that are whole
//!   aligned blocks). So a decoded trace prices without a panic; a
//!   corrupt payload yields [`CodecError`], never a panic.
//! * **Bounded allocation**: claimed lengths are checked against the
//!   remaining input before any buffer is reserved, so truncated or
//!   garbage headers cannot trigger huge allocations.
//!
//! The on-disk segment wraps this payload in a checksummed header (see
//! `cachetime-disk`); the codec itself starts with a one-byte payload
//! version so the format can evolve independently of the container.

use crate::opstream::OpStream;
use crate::replay::EventTrace;
use crate::system::{OrgConfig, SystemConfig};
use cachetime_cache::{
    CacheConfig, CacheStats, ReplacementPolicy, VictimCacheConfig, WayPrediction, WriteAllocate,
    WritePolicy,
};
use cachetime_mmu::{MmuStats, TranslationConfig};
use cachetime_types::{Assoc, BlockWords, CacheSize};

/// Payload format version written by [`encode`]; [`decode`] rejects
/// anything else.
pub const PAYLOAD_VERSION: u8 = 2;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the encoded structure did.
    Truncated,
    /// A field held a value the format does not define (bad tag, bad
    /// bool byte, unsupported version, trailing bytes).
    Invalid(&'static str),
    /// The decoded configuration failed re-validation (e.g. a
    /// non-power-of-two cache size) — structurally well-formed bytes
    /// describing an impossible organization.
    Config(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("payload truncated"),
            CodecError::Invalid(what) => write!(f, "invalid payload: {what}"),
            CodecError::Config(err) => write!(f, "invalid configuration: {err}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes a trace to the versioned payload format.
pub fn encode(trace: &EventTrace) -> Vec<u8> {
    // Fixed header ~330 bytes, then the packed ops as they are held.
    let mut out = Vec::with_capacity(384 + trace.ops().byte_len());
    out.push(PAYLOAD_VERSION);
    let org = trace.organization();
    put_cache_config(&mut out, org.l1i());
    put_cache_config(&mut out, org.l1d());
    put_bool(&mut out, org.is_split());
    match org.translation() {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u32(&mut out, t.page_words);
            put_u32(&mut out, t.tlb_entries);
            put_u32(&mut out, t.tlb_assoc);
            put_u64(&mut out, t.miss_penalty);
        }
    }
    put_u64(&mut out, trace.refs());
    put_u64(&mut out, trace.couplets());
    put_cache_stats(&mut out, trace.l1i_stats());
    put_cache_stats(&mut out, trace.l1d_stats());
    match trace.mmu_stats() {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_u64(&mut out, m.accesses);
            put_u64(&mut out, m.misses);
        }
    }
    let ops = trace.ops();
    put_u64(&mut out, ops.len() as u64);
    out.extend_from_slice(ops.bytes);
    out
}

/// Deserializes a payload produced by [`encode`].
///
/// # Errors
///
/// [`CodecError`] on truncation, undefined tags or versions, trailing
/// bytes, or a configuration that fails re-validation. Never panics on
/// arbitrary input.
pub fn decode(bytes: &[u8]) -> Result<EventTrace, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    let version = r.u8()?;
    if version != PAYLOAD_VERSION {
        return Err(CodecError::Invalid("unsupported payload version"));
    }
    let l1i = get_cache_config(&mut r)?;
    let l1d = get_cache_config(&mut r)?;
    let split = r.bool()?;
    let translation = match r.u8()? {
        0 => None,
        1 => {
            let t = TranslationConfig {
                page_words: r.u32()?,
                tlb_entries: r.u32()?,
                tlb_assoc: r.u32()?,
                miss_penalty: r.u64()?,
            };
            t.validate()
                .map_err(|e| CodecError::Config(e.to_string()))?;
            Some(t)
        }
        _ => return Err(CodecError::Invalid("translation flag")),
    };
    // OrgConfig's fields are private to `system`; rebuild it through the
    // system builder (which re-validates the combination) and take the
    // organization half. The timing half is defaulted and discarded.
    let mut b = SystemConfig::builder();
    b.l1i(l1i).l1d(l1d).unified(!split);
    if let Some(t) = translation {
        b.translation(t);
    }
    let org: OrgConfig = b
        .build()
        .map_err(|e| CodecError::Config(e.to_string()))?
        .organization();

    let refs = r.u64()?;
    let couplets = r.u64()?;
    let l1i_stats = get_cache_stats(&mut r)?;
    let l1d_stats = get_cache_stats(&mut r)?;
    let mmu = match r.u8()? {
        0 => None,
        1 => Some(MmuStats {
            accesses: r.u64()?,
            misses: r.u64()?,
        }),
        _ => return Err(CodecError::Invalid("mmu flag")),
    };
    let op_count = r.u64()?;
    // One check pass over the rest, which rejects a claimed count beyond
    // the remaining input before reserving anything, then one copy.
    let ops = OpStream::checked(&r.bytes[r.pos..], op_count)?;
    Ok(EventTrace::from_raw_parts(
        org, ops, refs, couplets, l1i_stats, l1d_stats, mmu,
    ))
}

// ---------------------------------------------------------------- writers

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_cache_config(out: &mut Vec<u8>, c: &CacheConfig) {
    put_u64(out, c.size().bytes());
    put_u32(out, c.block().words());
    put_u32(out, c.fetch().words());
    put_u32(out, c.assoc().ways());
    out.push(match c.replacement() {
        ReplacementPolicy::Random => 0,
        ReplacementPolicy::Lru => 1,
        ReplacementPolicy::Fifo => 2,
        ReplacementPolicy::TreePlru => 3,
    });
    out.push(match c.write_policy() {
        WritePolicy::WriteBack => 0,
        WritePolicy::WriteThrough => 1,
    });
    out.push(match c.write_allocate() {
        WriteAllocate::NoAllocate => 0,
        WriteAllocate::Allocate => 1,
    });
    put_bool(out, c.virtual_tags());
    put_u64(out, c.rng_seed());
    match c.features().victim_cache() {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u32(out, v.entries());
        }
    }
    out.push(match c.features().way_prediction() {
        None => 0,
        Some(WayPrediction::Mru) => 1,
        Some(WayPrediction::MultiColumn) => 2,
    });
}

fn put_cache_stats(out: &mut Vec<u8>, s: &CacheStats) {
    for v in [
        s.reads,
        s.read_misses,
        s.writes,
        s.write_misses,
        s.fills,
        s.fill_words,
        s.evictions,
        s.dirty_evictions,
        s.write_back_words,
        s.dirty_words_written_back,
        s.word_writes_downstream,
        s.victim_hits,
        s.way_first_hits,
        s.way_slow_hits,
        s.way_probe_rounds,
    ] {
        put_u64(out, v);
    }
}

// ---------------------------------------------------------------- readers

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte")),
        }
    }
}

fn get_cache_config(r: &mut Reader<'_>) -> Result<CacheConfig, CodecError> {
    let size = CacheSize::from_bytes(r.u64()?).map_err(|e| CodecError::Config(e.to_string()))?;
    let block = BlockWords::new(r.u32()?).map_err(|e| CodecError::Config(e.to_string()))?;
    let fetch = BlockWords::new(r.u32()?).map_err(|e| CodecError::Config(e.to_string()))?;
    let assoc = Assoc::new(r.u32()?).map_err(|e| CodecError::Config(e.to_string()))?;
    let replacement = match r.u8()? {
        0 => ReplacementPolicy::Random,
        1 => ReplacementPolicy::Lru,
        2 => ReplacementPolicy::Fifo,
        3 => ReplacementPolicy::TreePlru,
        _ => return Err(CodecError::Invalid("replacement tag")),
    };
    let write_policy = match r.u8()? {
        0 => WritePolicy::WriteBack,
        1 => WritePolicy::WriteThrough,
        _ => return Err(CodecError::Invalid("write-policy tag")),
    };
    let write_allocate = match r.u8()? {
        0 => WriteAllocate::NoAllocate,
        1 => WriteAllocate::Allocate,
        _ => return Err(CodecError::Invalid("write-allocate tag")),
    };
    let virtual_tags = r.bool()?;
    let rng_seed = r.u64()?;
    let victim = match r.u8()? {
        0 => None,
        1 => Some(VictimCacheConfig::new(r.u32()?).map_err(|e| CodecError::Config(e.to_string()))?),
        _ => return Err(CodecError::Invalid("victim-cache flag")),
    };
    let way_prediction = match r.u8()? {
        0 => None,
        1 => Some(WayPrediction::Mru),
        2 => Some(WayPrediction::MultiColumn),
        _ => return Err(CodecError::Invalid("way-prediction tag")),
    };
    let mut b = CacheConfig::builder(size);
    b.block(block)
        .fetch(fetch)
        .assoc(assoc)
        .replacement(replacement)
        .write_policy(write_policy)
        .write_allocate(write_allocate)
        .virtual_tags(virtual_tags)
        .rng_seed(rng_seed);
    if let Some(v) = victim {
        b.victim_cache(v);
    }
    if let Some(p) = way_prediction {
        b.way_prediction(p);
    }
    b.build().map_err(|e| CodecError::Config(e.to_string()))
}

fn get_cache_stats(r: &mut Reader<'_>) -> Result<CacheStats, CodecError> {
    Ok(CacheStats {
        reads: r.u64()?,
        read_misses: r.u64()?,
        writes: r.u64()?,
        write_misses: r.u64()?,
        fills: r.u64()?,
        fill_words: r.u64()?,
        evictions: r.u64()?,
        dirty_evictions: r.u64()?,
        write_back_words: r.u64()?,
        dirty_words_written_back: r.u64()?,
        word_writes_downstream: r.u64()?,
        victim_hits: r.u64()?,
        way_first_hits: r.u64()?,
        way_slow_hits: r.u64()?,
        way_probe_rounds: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BehavioralSim;
    use cachetime_trace::catalog;

    #[test]
    fn round_trip_paper_default() {
        let config = SystemConfig::paper_default().unwrap();
        let trace = catalog::mu3(0.02).generate();
        let events = BehavioralSim::new(&config.organization()).record(&trace);
        let bytes = encode(&events);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, events);
    }

    #[test]
    fn truncation_never_panics() {
        let config = SystemConfig::paper_default().unwrap();
        let trace = catalog::mu3(0.01).generate();
        let events = BehavioralSim::new(&config.organization()).record(&trace);
        let bytes = encode(&events);
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix {len} decoded");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let config = SystemConfig::paper_default().unwrap();
        let trace = catalog::mu3(0.01).generate();
        let events = BehavioralSim::new(&config.organization()).record(&trace);
        let mut bytes = encode(&events);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::Invalid("trailing bytes")));
    }

    #[test]
    fn bad_version_rejected() {
        let config = SystemConfig::paper_default().unwrap();
        let trace = catalog::mu3(0.01).generate();
        let events = BehavioralSim::new(&config.organization()).record(&trace);
        let mut bytes = encode(&events);
        bytes[0] = PAYLOAD_VERSION + 1;
        assert!(matches!(decode(&bytes), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn bogus_op_count_is_rejected_before_allocating() {
        let config = SystemConfig::paper_default().unwrap();
        let trace = catalog::mu3(0.01).generate();
        let events = BehavioralSim::new(&config.organization()).record(&trace);
        let bytes = encode(&events);
        // Find the op-count field: it sits right before the first op. The
        // encoding is deterministic, so re-encode a zero-op trace to learn
        // the header length.
        let empty = EventTrace::from_raw_parts(
            *events.organization(),
            OpStream::default(),
            events.refs(),
            events.couplets(),
            *events.l1i_stats(),
            *events.l1d_stats(),
            events.mmu_stats().copied(),
        );
        let header_len = encode(&empty).len() - 8;
        let mut bytes = bytes;
        bytes[header_len..header_len + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    }
}
