//! The packed op stream of an [`EventTrace`](crate::EventTrace).
//!
//! An op is one step of a behavioral walk: a run of all-hit couplets
//! counted per [`CoupletClass`], one recorded couplet (an ifetch and a
//! data half, each a [`RefEvent`] or absent), or the warm-start boundary.
//! Every op moves through an [`OpSink`], one method per shape. The walk
//! calls a sink; [`OpWriter`] is the sink that encodes each op into a few
//! bytes, a replay's lane bank is the sink that prices it on every lane,
//! and one decoder reads the bytes back into any sink, each half built on
//! the stack. The bytes are both what the trace holds in memory and what
//! a segment payload carries after the codec's header.
//!
//! Both sides of the stream carry a small state from op to op: the last
//! address of each couplet side (I and D), the last pid, and the fill
//! size of the last miss. Addresses are zigzag deltas against the
//! previous address on the same side, a pid is written only when it
//! changes, and a victim address is stored relative to its reference's
//! address. A miss's fetch start is not stored: a cache always fetches
//! the sub-block aligned to its fill. Every multi-byte field is
//! little-endian with a width the header bits choose, read with one
//! unaligned load and a mask.
//!
//! ```text
//! first byte     op
//! xxxx_xxx0      lone clean read miss (the dominant recorded couplet)
//!                  bit 1     side: 0 = ifetch half, 1 = data half
//!                  bit 2     pid changed: 2 pid bytes follow the address
//!                  bits 3-5  address delta width - 1 (1..8 bytes)
//!                  bits 6-7  zero (never read)
//!                walk-free, no victim, fill size as the last miss's
//! wmmm_mm01      hit run: m = the classes with a nonzero count, in
//!                CoupletClass order; w = a u16 of 2-bit count widths
//!                (1..4 bytes) follows, else every count is one byte
//! 000d_i011      general couplet: i/d = that half follows as a record
//! 0000_0111      warm boundary
//!
//! record byte    bits 0-3  access kind 0..=10 (see `kind_of`)
//!                bit 4     pid changed: 2 pid bytes follow the address
//!                bit 5     walk: a width byte (1..8) and the walk cycles
//!                bits 6-7  address delta width: 1/2/4/8 bytes
//! miss byte      (kinds 8..=10 only, after the walk)
//!                bits 0-1  zero (never read)
//!                bit 2     fill size changed: 4 bytes follow
//!                bit 3     victim: its address delta follows
//!                bits 4-5  victim delta width: 1/2/4/8 bytes
//!                bit 6     victim words differ from the fill: 4 bytes
//! ```
//!
//! [`OpWriter`] writes every field at the narrowest width that holds it
//! and every shape with its dedicated code, so the ops of one recording
//! are always the same bytes. [`OpStream::checked`] does not require
//! that of bytes it is handed: it decodes each op once into a sink that
//! refuses only the shapes no walk emits, which a lane bank cannot price
//! (see `walked`), and keeps the bytes as given. An overlong field or a
//! set bit that is never read is accepted and prices as the op it
//! decodes to. Equal streams are equal ops, but equal ops from two
//! sources need not be equal bytes.

use crate::codec::CodecError;
use cachetime_cache::MAX_BLOCK_WORDS;
use cachetime_types::{AccessEvent, CoupletClass, Pid, RefEvent, VictimBlock, WordAddr};

const TAG_HIT_RUN: u8 = 0b01;
const TAG_COUPLET: u8 = 0b011;
const TAG_WARM: u8 = 0b111;

/// Low-byte masks by field width in bytes.
const MASK: [u64; 9] = [
    0,
    0xff,
    0xffff,
    0xff_ffff,
    0xffff_ffff,
    0xff_ffff_ffff,
    0xffff_ffff_ffff,
    0xff_ffff_ffff_ffff,
    u64::MAX,
];

/// Widths of a general record's address and victim deltas, by code.
const DELTA: [usize; 4] = [1, 2, 4, 8];

/// What both sides of the stream carry from one op to the next.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct State {
    /// The last address of each couplet side: `[ifetch, data]`.
    addr: [u64; 2],
    pid: u16,
    /// The fill size of the last miss.
    fill: u32,
}

/// An encoded op sequence: the packed bytes and the number of ops in
/// them. Only [`OpWriter`] and [`OpStream::checked`] make one, so its
/// bytes always decode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct OpStream {
    bytes: Vec<u8>,
    len: usize,
}

impl OpStream {
    /// Validates `bytes` as exactly `len` ops a walk could have recorded,
    /// in one decode pass, and returns a stream of those bytes as given.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the bytes end inside an op or hold
    /// fewer than `len`; [`CodecError::Invalid`] on an undefined code, an
    /// op no walk emits, or bytes past the last op.
    pub(crate) fn checked(bytes: &[u8], len: u64) -> Result<Self, CodecError> {
        // Every op is at least one byte, so a larger count is a lie.
        if len > bytes.len() as u64 {
            return Err(CodecError::Truncated);
        }
        let len = len as usize;
        let mut shapes = Shapes(Ok(()));
        let end = decode_ops(bytes, len, &mut shapes);
        // The sink saw only the ops before a decode error, so its refusal
        // is the earlier fault.
        shapes.0.map_err(CodecError::Invalid)?;
        if end? != bytes.len() {
            return Err(CodecError::Invalid("trailing bytes"));
        }
        Ok(OpStream {
            bytes: bytes.to_vec(),
            len,
        })
    }

    pub(crate) fn view(&self) -> Ops<'_> {
        Ops {
            bytes: &self.bytes,
            len: self.len,
        }
    }

    /// Bytes allocated for the stream, spare capacity included.
    pub(crate) fn capacity(&self) -> usize {
        self.bytes.capacity()
    }
}

/// Appends ops to a stream as a walk emits them.
pub(crate) struct OpWriter {
    stream: OpStream,
    state: State,
}

impl OpWriter {
    /// An empty stream with room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        OpWriter {
            stream: OpStream {
                bytes: Vec::with_capacity(bytes),
                len: 0,
            },
            state: State::default(),
        }
    }

    /// Appends the op `put` writes from the stream state.
    #[inline(always)]
    fn append(&mut self, put: impl FnOnce(&mut State, &mut Staged<'_>)) {
        let bytes = &mut self.stream.bytes;
        let start = bytes.len();
        bytes.extend_from_slice(&[0; OP_ROOM]);
        let mut out = Staged {
            buf: (&mut bytes[start..]).try_into().expect("room for an op"),
            len: 0,
        };
        put(&mut self.state, &mut out);
        let n = out.len;
        bytes.truncate(start + n);
        self.stream.len += 1;
    }

    /// The finished stream, trimmed to its bytes.
    pub(crate) fn finish(mut self) -> OpStream {
        self.stream.bytes.shrink_to_fit();
        self.stream
    }
}

/// The encoder. Out of line, so the walk's loop holds one call per op
/// rather than the encoder at each place it emits one.
impl OpSink for OpWriter {
    #[inline(never)]
    fn hit_run(&mut self, counts: &[u32; CoupletClass::COUNT]) {
        self.append(|_, out| put_hit_run(counts, out));
    }

    #[inline(never)]
    fn couplet(&mut self, iref: Option<&RefEvent>, dref: Option<&RefEvent>) {
        self.append(|s, out| put_couplet(iref, dref, s, out));
    }

    #[inline(never)]
    fn warm_boundary(&mut self) {
        self.append(|_, out| out.push(TAG_WARM));
    }
}

/// The recorded ops of an [`EventTrace`](crate::EventTrace): a borrowed
/// view of its packed stream.
#[derive(Debug, Clone, Copy)]
pub struct Ops<'a> {
    pub(crate) bytes: &'a [u8],
    len: usize,
}

impl Ops<'_> {
    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the packed ops take.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes every op in recorded order into `sink`.
    #[inline]
    pub(crate) fn feed(&self, sink: &mut impl OpSink) {
        decode_ops(self.bytes, self.len, sink).expect(CHECKED);
    }
}

/// Receives ops, one call per op, by shape.
pub(crate) trait OpSink {
    /// A maximal stretch of consecutive all-hit couplets (no TLB walks,
    /// nothing sent downstream), counted per [`CoupletClass::index`].
    /// Every such couplet has a fixed, state-free cost, so their order
    /// inside the stretch is immaterial.
    fn hit_run(&mut self, counts: &[u32; CoupletClass::COUNT]);
    /// One couplet with at least one non-trivial half.
    fn couplet(&mut self, iref: Option<&RefEvent>, dref: Option<&RefEvent>);
    /// The warm-start boundary: timing statistics reset here.
    fn warm_boundary(&mut self);
}

/// The sink [`OpStream::checked`] decodes into: it keeps why the first op
/// no walk emits is refused.
struct Shapes(Result<(), &'static str>);

impl OpSink for Shapes {
    fn hit_run(&mut self, counts: &[u32; CoupletClass::COUNT]) {
        if counts.iter().all(|&c| c == 0) {
            self.0 = self.0.and(Err("empty hit run"));
        }
    }

    fn couplet(&mut self, iref: Option<&RefEvent>, dref: Option<&RefEvent>) {
        self.0 = self.0.and(walked(iref, dref));
    }

    fn warm_boundary(&mut self) {}
}

/// Whether a walk could have recorded this couplet: it has a half, its
/// ifetch half reads, and every miss fills and evicts whole, aligned
/// blocks a cache can have. A lane bank prices nothing else.
fn walked(iref: Option<&RefEvent>, dref: Option<&RefEvent>) -> Result<(), &'static str> {
    if iref.is_none() && dref.is_none() {
        return Err("empty couplet");
    }
    if iref.is_some_and(|e| e.access.is_write()) {
        return Err("store on the ifetch half");
    }
    for e in iref.into_iter().chain(dref) {
        let (AccessEvent::ReadMiss {
            fill_words, victim, ..
        }
        | AccessEvent::WriteMissAllocate {
            fill_words, victim, ..
        }) = e.access
        else {
            continue;
        };
        if !is_block(fill_words) {
            return Err("fill size");
        }
        if victim.is_some_and(|v| {
            !is_block(v.words) || aligned(v.addr.value(), v.words) != v.addr.value()
        }) {
            return Err("victim block");
        }
    }
    Ok(())
}

/// Whether a cache can fill or evict `words` words at once: a power of
/// two up to [`MAX_BLOCK_WORDS`].
fn is_block(words: u32) -> bool {
    words.is_power_of_two() && words <= MAX_BLOCK_WORDS
}

// ---------------------------------------------------------------- fields

/// Bytes needed to hold `v`: 0 for 0.
#[inline]
fn bytes_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(8)
}

/// The first [`DELTA`] code whose width holds `need` bytes.
#[inline]
fn delta_code(need: usize) -> usize {
    (0..3).find(|&c| DELTA[c] >= need).unwrap_or(3)
}

#[inline]
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The longest op (a couplet of two records with every field at full
/// width) is 91 bytes, and a field's 8-byte store may run 7 past it.
const OP_ROOM: usize = 98;

/// The bytes of the op being written: each field is one 8-byte store,
/// and `len` counts the bytes that are the op's.
struct Staged<'a> {
    buf: &'a mut [u8; OP_ROOM],
    len: usize,
}

impl Staged<'_> {
    #[inline(always)]
    fn push(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// Appends the low `width` bytes of `v`.
    #[inline(always)]
    fn put(&mut self, v: u64, width: usize) {
        self.buf[self.len..self.len + 8].copy_from_slice(&v.to_le_bytes());
        self.len += width;
    }
}

/// Eight bytes from `pos` on, little-endian, zero past the end: one
/// unaligned load wherever eight bytes remain. Fields are read by masking
/// this, and a reader checks once per op that it stayed in bounds.
#[inline(always)]
fn load(bytes: &[u8], pos: usize) -> u64 {
    match bytes.get(pos..pos + 8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("eight bytes")),
        None => load_tail(bytes, pos),
    }
}

#[cold]
#[inline(never)]
fn load_tail(bytes: &[u8], pos: usize) -> u64 {
    let mut buf = [0u8; 8];
    if let Some(rest) = bytes.get(pos..) {
        let n = rest.len().min(8);
        buf[..n].copy_from_slice(&rest[..n]);
    }
    u64::from_le_bytes(buf)
}

/// Reads a `width`-byte field at `*pos` and steps past it.
#[inline(always)]
fn take(bytes: &[u8], pos: &mut usize, width: usize) -> u64 {
    let v = load(bytes, *pos) & MASK[width];
    *pos += width;
    v
}

/// The first word of the `words`-word block that holds `addr`: where a
/// miss of that fill size fetches from, as every cache in the crate does.
#[inline]
fn aligned(addr: u64, words: u32) -> u64 {
    addr & !(words as u64).wrapping_sub(1)
}

/// A general record's access-kind code.
fn kind_of(access: &AccessEvent) -> u8 {
    match *access {
        AccessEvent::ReadHit => 0,
        AccessEvent::ReadSlowHit => 1,
        AccessEvent::ReadVictimHit => 2,
        AccessEvent::WriteMissAround => 3,
        AccessEvent::WriteHit { through } => 4 + through as u8,
        AccessEvent::WriteVictimHit { through } => 6 + through as u8,
        AccessEvent::ReadMiss { .. } => 8,
        AccessEvent::WriteMissAllocate { through, .. } => 9 + through as u8,
    }
}

// ---------------------------------------------------------------- encode

/// Writes a couplet's encoding and advances the stream state.
#[inline(always)]
fn put_couplet(
    iref: Option<&RefEvent>,
    dref: Option<&RefEvent>,
    s: &mut State,
    out: &mut Staged<'_>,
) {
    match (iref, dref) {
        (Some(e), None) if is_lone_clean_miss(e, s.fill) => put_lone_miss(0, e, s, out),
        (None, Some(e)) if is_lone_clean_miss(e, s.fill) => put_lone_miss(1, e, s, out),
        _ => {
            out.push(TAG_COUPLET | (iref.is_some() as u8) << 3 | (dref.is_some() as u8) << 4);
            if let Some(e) = iref {
                put_record(0, e, s, out);
            }
            if let Some(e) = dref {
                put_record(1, e, s, out);
            }
        }
    }
}

fn is_lone_clean_miss(e: &RefEvent, fill: u32) -> bool {
    e.walk_cycles == 0
        && matches!(e.access, AccessEvent::ReadMiss { fill_words, victim: None, .. } if fill_words == fill)
}

#[inline(always)]
fn put_hit_run(counts: &[u32; CoupletClass::COUNT], out: &mut Staged<'_>) {
    let present = counts
        .iter()
        .enumerate()
        .fold(0u8, |m, (i, &c)| m | ((c != 0) as u8) << i);
    let wide = counts.iter().any(|&c| c > 0xff);
    out.push(TAG_HIT_RUN | present << 2 | (wide as u8) << 7);
    if wide {
        let widths = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .fold(0u64, |w, (i, &c)| {
                w | ((bytes_of(c as u64) - 1) as u64) << (2 * i)
            });
        out.put(widths, 2);
    }
    for &c in counts.iter().filter(|&&c| c != 0) {
        let width = if wide { bytes_of(c as u64) } else { 1 };
        out.put(c as u64, width);
    }
}

#[inline(always)]
fn put_lone_miss(side: usize, e: &RefEvent, s: &mut State, out: &mut Staged<'_>) {
    let addr = e.addr.value();
    let delta = zigzag(addr.wrapping_sub(s.addr[side]));
    let width = bytes_of(delta).max(1);
    let pid_changed = e.pid.0 != s.pid;
    out.push((side as u8) << 1 | (pid_changed as u8) << 2 | ((width - 1) as u8) << 3);
    out.put(delta, width);
    if pid_changed {
        out.put(e.pid.0 as u64, 2);
    }
    s.addr[side] = addr;
    s.pid = e.pid.0;
}

#[inline(always)]
fn put_record(side: usize, e: &RefEvent, s: &mut State, out: &mut Staged<'_>) {
    let addr = e.addr.value();
    let delta = zigzag(addr.wrapping_sub(s.addr[side]));
    let code = delta_code(bytes_of(delta));
    let pid_changed = e.pid.0 != s.pid;
    let walk = e.walk_cycles != 0;
    out.push(kind_of(&e.access) | (pid_changed as u8) << 4 | (walk as u8) << 5 | (code as u8) << 6);
    out.put(delta, DELTA[code]);
    if pid_changed {
        out.put(e.pid.0 as u64, 2);
    }
    if walk {
        let width = bytes_of(e.walk_cycles);
        out.push(width as u8);
        out.put(e.walk_cycles, width);
    }
    if let AccessEvent::ReadMiss {
        fill_words: fill,
        victim,
        ..
    }
    | AccessEvent::WriteMissAllocate {
        fill_words: fill,
        victim,
        ..
    } = e.access
    {
        let fill_changed = fill != s.fill;
        let victim = victim.map(|v| {
            let delta = zigzag(v.addr.value().wrapping_sub(addr));
            (delta, delta_code(bytes_of(delta)), v.words)
        });
        let mut m = (fill_changed as u8) << 2;
        if let Some((_, vcode, words)) = victim {
            m |= 1 << 3 | (vcode as u8) << 4 | ((words != fill) as u8) << 6;
        }
        out.push(m);
        if fill_changed {
            out.put(fill as u64, 4);
        }
        if let Some((delta, vcode, words)) = victim {
            out.put(delta, DELTA[vcode]);
            if words != fill {
                out.put(words as u64, 4);
            }
        }
        s.fill = fill;
    }
    s.addr[side] = addr;
    s.pid = e.pid.0;
}

// ---------------------------------------------------------------- decode

const CHECKED: &str = "an OpStream holds only checked ops";

/// The record kinds that carry no payload, by kind code.
const PLAIN: [AccessEvent; 8] = [
    AccessEvent::ReadHit,
    AccessEvent::ReadSlowHit,
    AccessEvent::ReadVictimHit,
    AccessEvent::WriteMissAround,
    AccessEvent::WriteHit { through: false },
    AccessEvent::WriteHit { through: true },
    AccessEvent::WriteVictimHit { through: false },
    AccessEvent::WriteVictimHit { through: true },
];

/// Decodes the first `len` ops of `bytes` into `sink` and returns where
/// the last one ends.
#[inline(always)]
fn decode_ops(bytes: &[u8], len: usize, sink: &mut impl OpSink) -> Result<usize, CodecError> {
    let (mut pos, mut state) = (0, State::default());
    for _ in 0..len {
        decode_op(bytes, &mut pos, &mut state, sink)?;
    }
    Ok(pos)
}

/// Decodes the op at `*pos` into `sink`, steps past it and advances the
/// stream state. Never panics: out-of-range reads see zeros and end in
/// `Truncated`, and `sink` sees an op only once all of it is in bounds.
#[inline(always)]
fn decode_op(
    bytes: &[u8],
    pos: &mut usize,
    s: &mut State,
    sink: &mut impl OpSink,
) -> Result<(), CodecError> {
    let Some(&h) = bytes.get(*pos) else {
        return Err(CodecError::Truncated);
    };
    let mut p = *pos + 1;
    if h & 1 == 0 {
        let side = (h >> 1 & 1) as usize;
        let delta = take(bytes, &mut p, (h >> 3 & 7) as usize + 1);
        let addr = s.addr[side].wrapping_add(unzigzag(delta));
        if h & 1 << 2 != 0 {
            s.pid = take(bytes, &mut p, 2) as u16;
        }
        s.addr[side] = addr;
        within(bytes, pos, p)?;
        let e = RefEvent {
            addr: WordAddr::new(addr),
            pid: Pid(s.pid),
            walk_cycles: 0,
            access: AccessEvent::ReadMiss {
                fetch_start: WordAddr::new(aligned(addr, s.fill)),
                fill_words: s.fill,
                victim: None,
            },
        };
        if side == 0 {
            sink.couplet(Some(&e), None);
        } else {
            sink.couplet(None, Some(&e));
        }
    } else if h & 0b11 == TAG_HIT_RUN {
        let present = (h >> 2 & 0x1f) as u32;
        let mut counts = [0u32; CoupletClass::COUNT];
        if h & 0x80 == 0 {
            // One byte per present class: one load, then each count is
            // the byte at its rank among the present classes.
            let word = load(bytes, p);
            let mut rank = 0;
            for (i, c) in counts.iter_mut().enumerate() {
                let bit = present >> i & 1;
                *c = (word >> (8 * rank)) as u8 as u32 * bit;
                rank += bit;
            }
            // The next op's position, summed apart from the ranks so the
            // walk from op to op does not wait on them.
            p += ((present & 1)
                + (present >> 1 & 1)
                + (present >> 2 & 1)
                + (present >> 3 & 1)
                + (present >> 4)) as usize;
        } else {
            let widths = take(bytes, &mut p, 2);
            for (i, c) in counts.iter_mut().enumerate() {
                let width = (present >> i & 1) as usize * ((widths >> (2 * i) & 3) as usize + 1);
                *c = take(bytes, &mut p, width) as u32;
            }
        }
        within(bytes, pos, p)?;
        sink.hit_run(&counts);
    } else if h & 0b111 == TAG_COUPLET {
        let iref = if h & 1 << 3 != 0 {
            Some(get_record(bytes, &mut p, 0, s)?)
        } else {
            None
        };
        let dref = if h & 1 << 4 != 0 {
            Some(get_record(bytes, &mut p, 1, s)?)
        } else {
            None
        };
        within(bytes, pos, p)?;
        sink.couplet(iref.as_ref(), dref.as_ref());
    } else if h == TAG_WARM {
        *pos = p;
        sink.warm_boundary();
    } else {
        return Err(CodecError::Invalid("op code"));
    }
    Ok(())
}

/// Commits an op that ends at `end`, if it ends within `bytes`.
#[inline(always)]
fn within(bytes: &[u8], pos: &mut usize, end: usize) -> Result<(), CodecError> {
    if end > bytes.len() {
        return Err(CodecError::Truncated);
    }
    *pos = end;
    Ok(())
}

#[inline(always)]
fn get_record(
    bytes: &[u8],
    p: &mut usize,
    side: usize,
    s: &mut State,
) -> Result<RefEvent, CodecError> {
    let a = take(bytes, p, 1) as usize;
    let addr = s.addr[side].wrapping_add(unzigzag(take(bytes, p, DELTA[a >> 6])));
    s.addr[side] = addr;
    if a & 1 << 4 != 0 {
        s.pid = take(bytes, p, 2) as u16;
    }
    let walk_cycles = if a & 1 << 5 != 0 {
        let width = take(bytes, p, 1) as usize;
        if width > 8 {
            return Err(CodecError::Invalid("walk width"));
        }
        take(bytes, p, width)
    } else {
        0
    };
    let kind = a & 0xf;
    let access = match kind {
        0..=7 => PLAIN[kind],
        8..=10 => {
            let m = take(bytes, p, 1) as usize;
            if m & 1 << 2 != 0 {
                s.fill = take(bytes, p, 4) as u32;
            }
            let fill_words = s.fill;
            let fetch_start = WordAddr::new(aligned(addr, fill_words));
            let victim = (m & 1 << 3 != 0).then(|| {
                let delta = take(bytes, p, DELTA[m >> 4 & 3]);
                let words = if m & 1 << 6 != 0 {
                    take(bytes, p, 4) as u32
                } else {
                    fill_words
                };
                VictimBlock {
                    addr: WordAddr::new(addr.wrapping_add(unzigzag(delta))),
                    words,
                }
            });
            if kind == 8 {
                AccessEvent::ReadMiss {
                    fetch_start,
                    fill_words,
                    victim,
                }
            } else {
                AccessEvent::WriteMissAllocate {
                    fetch_start,
                    fill_words,
                    victim,
                    through: kind == 10,
                }
            }
        }
        _ => return Err(CodecError::Invalid("access kind")),
    };
    Ok(RefEvent {
        addr: WordAddr::new(addr),
        pid: Pid(s.pid),
        walk_cycles,
        access,
    })
}

#[cfg(test)]
mod tests {
    use super::gen::{dispatch, gen_ops, Op, Range};
    use super::*;
    use cachetime_testkit::{check, prop_assert, prop_assert_eq, shrink, SplitMix64};
    use std::collections::BTreeSet;

    fn miss(addr: u64, fetch_start: u64, fill_words: u32) -> RefEvent {
        RefEvent {
            addr: WordAddr::new(addr),
            pid: Pid(0),
            walk_cycles: 0,
            access: AccessEvent::ReadMiss {
                fetch_start: WordAddr::new(fetch_start),
                fill_words,
                victim: None,
            },
        }
    }

    fn stream(ops: &[Op]) -> OpStream {
        let mut w = OpWriter::with_capacity(0);
        dispatch(ops, &mut w);
        w.finish()
    }

    fn decoded(s: &OpStream) -> Vec<Op> {
        let mut ops = Vec::new();
        s.view().feed(&mut ops);
        ops
    }

    /// Both ranges of the generator reach every first-byte code within
    /// the 64 cases a property runs by default: lone misses on both sides,
    /// with and without a pid change; narrow and wide hit runs; every
    /// couplet layout; the warm boundary. Their records take every access
    /// kind, with walks and victims.
    #[test]
    fn generated_streams_reach_every_code() {
        for range in [Range::Any, Range::Priceable] {
            let (mut heads, mut kinds) = (BTreeSet::new(), BTreeSet::new());
            let (mut walks, mut victims) = (0, 0);
            for case in 0..64 {
                let s = stream(&gen_ops(&mut SplitMix64::from_seed(case), range));
                let (mut pos, mut state) = (0, State::default());
                let mut ops = Vec::new();
                for _ in 0..s.len {
                    let h = s.bytes[pos];
                    // Less a lone miss's delta width and the classes a hit
                    // run counts.
                    heads.insert(match h {
                        _ if h & 1 == 0 => h & !0b11_1000,
                        _ if h & 0b11 == TAG_HIT_RUN => h & 0x83,
                        _ => h,
                    });
                    decode_op(&s.bytes, &mut pos, &mut state, &mut ops).unwrap();
                    let Some(Op::Couplet { iref, dref }) = ops.last() else {
                        continue;
                    };
                    for e in iref.iter().chain(dref) {
                        kinds.insert(kind_of(&e.access));
                        walks += (e.walk_cycles != 0) as u32;
                        victims += matches!(
                            e.access,
                            AccessEvent::ReadMiss {
                                victim: Some(_),
                                ..
                            } | AccessEvent::WriteMissAllocate {
                                victim: Some(_),
                                ..
                            }
                        ) as u32;
                    }
                }
            }
            // Lone misses: 2 sides x 2 pid flags. Couplets: ifetch half
            // only, data half only, both.
            assert_eq!(heads.len(), 4 + 2 + 3 + 1, "{range:?}: {heads:?}");
            assert_eq!(kinds.len(), 11, "{range:?}: {kinds:?}");
            assert!(walks > 0 && victims > 0, "{range:?}");
        }
    }

    #[test]
    fn the_hot_shapes_take_a_few_bytes() {
        let first = Op::Couplet {
            iref: None,
            dref: Some(miss(0x1000, 0x1000, 4)),
        };
        let next = Op::Couplet {
            iref: None,
            dref: Some(miss(0x1043, 0x1040, 4)),
        };
        let mut counts = [0u32; CoupletClass::COUNT];
        counts[CoupletClass::IfetchLoad.index()] = 9;
        counts[CoupletClass::Ifetch.index()] = 3;
        let run = Op::HitRun { counts };
        let s = stream(&[first, run, next]);
        let v = s.view();
        // The first miss sets the fill size through a general record; the
        // second is one header byte plus a one-byte delta, its fetch start
        // aligned. The run is a header plus one byte per present class.
        let first_len = v.byte_len() - 3 - 2;
        assert_eq!(
            &v.bytes[first_len..first_len + 3],
            &[0b11 << 2 | TAG_HIT_RUN, 3, 9]
        );
        assert_eq!(v.bytes[first_len + 3] & 1, 0, "a lone clean miss");
        assert_eq!(decoded(&s), vec![first, run, next]);
        assert_eq!(OpStream::checked(&s.bytes, 3), Ok(s.clone()));
    }

    #[test]
    fn an_overlong_field_decodes_to_the_same_ops() {
        // A general record sets the fill size, then a lone clean miss.
        let ops = [
            Op::Couplet {
                iref: None,
                dref: Some(miss(0x40, 0x40, 4)),
            },
            Op::Couplet {
                iref: Some(miss(5, 4, 4)),
                dref: None,
            },
        ];
        let s = stream(&ops);
        // The lone miss is one header byte and a one-byte delta: widened
        // to two bytes, the delta is accepted, kept as given, and decodes
        // to the same ops.
        let at = s.bytes.len() - 2;
        assert_eq!(s.bytes[at] & 1, 0, "a lone clean miss");
        let mut wide = s.bytes.clone();
        wide[at] |= 1 << 3;
        wide.push(0);
        let back = OpStream::checked(&wide, 2).expect("an overlong delta decodes");
        assert_eq!(back.bytes, wide);
        assert_eq!(decoded(&back), ops.to_vec());
    }

    /// Ops the encoder can write but no walk emits, each of which a lane
    /// bank would misprice or panic on, are refused.
    #[test]
    fn a_stream_no_walk_writes_is_rejected() {
        let cases: [(&[u8], &str); 7] = [
            // A general couplet with neither half.
            (&[0x03], "empty couplet"),
            // A hit run that counts no class.
            (&[0x01], "empty hit run"),
            // A general couplet whose ifetch half is a write-back store hit.
            (&[0x0b, 0x04, 0x00], "store on the ifetch half"),
            // A lone miss before any miss set the fill size.
            (&[0x00, 0x00], "fill size"),
            // A data-half read miss with a fill of 3 words, then of 512.
            (&[0x13, 0x08, 0x00, 0x04, 3, 0, 0, 0], "fill size"),
            (&[0x13, 0x08, 0x00, 0x04, 0, 2, 0, 0], "fill size"),
            // A 4-word fill whose 4-word victim starts at word 2.
            (&[0x13, 0x08, 0x00, 0x0c, 4, 0, 0, 0, 0x04], "victim block"),
        ];
        for (bytes, why) in cases {
            assert_eq!(
                OpStream::checked(bytes, 1),
                Err(CodecError::Invalid(why)),
                "{bytes:02x?}"
            );
        }
    }

    /// Decodes `bytes` as `len` ops; if that succeeds, the ops must
    /// re-encode to a stream that decodes to them again, so the decoder
    /// reads no field the encoder does not write.
    fn accepted_ops_round_trip(bytes: &[u8], len: u64) -> Result<(), String> {
        let Ok(s) = OpStream::checked(bytes, len) else {
            return Ok(());
        };
        let ops = decoded(&s);
        prop_assert_eq!(decoded(&stream(&ops)), ops);
        Ok(())
    }

    #[test]
    fn op_stream_round_trips() {
        check(
            "op_stream_round_trips",
            |rng| gen_ops(rng, Range::Any),
            shrink::vec_linear,
            |ops| {
                let s = stream(ops);
                let n = ops.len() as u64;
                prop_assert_eq!(decoded(&s), ops.clone());
                prop_assert_eq!(OpStream::checked(&s.bytes, n), Ok(s.clone()));
                for cut in 0..s.bytes.len() {
                    prop_assert!(
                        OpStream::checked(&s.bytes[..cut], n).is_err(),
                        "prefix {cut} decoded"
                    );
                    accepted_ops_round_trip(&s.bytes[..cut], n - 1)?;
                }
                let mut flipped = s.bytes.clone();
                for at in 0..flipped.len() {
                    for mask in [0x01, 0x08, 0x20, 0x80, 0xff] {
                        flipped[at] ^= mask;
                        accepted_ops_round_trip(&flipped, n)?;
                        flipped[at] ^= mask;
                    }
                }
                Ok(())
            },
        );
    }
}

/// The op model of the property tests, and random op sequences over every
/// shape the stream has a code for.
#[cfg(test)]
pub(crate) mod gen {
    use super::{aligned, OpSink};
    use cachetime_cache::MAX_BLOCK_WORDS;
    use cachetime_testkit::SplitMix64;
    use cachetime_types::{AccessEvent, CoupletClass, Pid, RefEvent, VictimBlock, WordAddr};

    /// One op as a test holds it: the [`OpSink`] method it reaches, and
    /// that method's arguments.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Op {
        HitRun {
            counts: [u32; CoupletClass::COUNT],
        },
        Couplet {
            iref: Option<RefEvent>,
            dref: Option<RefEvent>,
        },
        WarmBoundary,
    }

    /// Hands each of `ops` to `sink`, in order, through the method for its
    /// shape.
    pub(crate) fn dispatch(ops: &[Op], sink: &mut impl OpSink) {
        for op in ops {
            match op {
                Op::HitRun { counts } => sink.hit_run(counts),
                Op::Couplet { iref, dref } => sink.couplet(iref.as_ref(), dref.as_ref()),
                Op::WarmBoundary => sink.warm_boundary(),
            }
        }
    }

    /// Keeps every op it is handed.
    impl OpSink for Vec<Op> {
        fn hit_run(&mut self, counts: &[u32; CoupletClass::COUNT]) {
            self.push(Op::HitRun { counts: *counts });
        }

        fn couplet(&mut self, iref: Option<&RefEvent>, dref: Option<&RefEvent>) {
            self.push(Op::Couplet {
                iref: iref.copied(),
                dref: dref.copied(),
            });
        }

        fn warm_boundary(&mut self) {
            self.push(Op::WarmBoundary);
        }
    }

    /// The values generated fields take. Either way, every op is one a
    /// walk could emit: a hit run counts something, a couplet has a half
    /// and its ifetch half reads, a miss fetches the sub-block aligned to
    /// its fill, and a victim is a whole block aligned to its size.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Range {
        /// Every corner of the encoding: the ends of the address space,
        /// fills and victims up to `MAX_BLOCK_WORDS`, walks up to
        /// `u64::MAX`.
        Any,
        /// Ops a lane bank prices without overflow: addresses in
        /// `[2^20, 2^40)`, fills and victims of 1-16 words, walks under
        /// 2^40 cycles.
        Priceable,
    }

    const LOW: u64 = 1 << 20;
    const HIGH: u64 = 1 << 40;

    /// An address: near the last one on its side most of the time, and
    /// otherwise a jump, to either end of the range or anywhere in it.
    fn gen_addr(rng: &mut SplitMix64, last: &mut u64, range: Range) -> WordAddr {
        let near = last
            .wrapping_add(rng.gen_range(0u64..600))
            .wrapping_sub(300);
        let next = match (range, rng.gen_range(0u8..8)) {
            (Range::Any, 0) => 0,
            (Range::Any, 1) => u64::MAX - rng.gen_range(0u64..4),
            (Range::Any, 2) => rng.next_u64(),
            (Range::Priceable, 0) => LOW,
            (Range::Priceable, 1) => HIGH - 1 - rng.gen_range(0u64..4),
            (Range::Priceable, 2) => rng.gen_range(LOW..HIGH),
            (_, 3) => *last,
            _ => near,
        };
        *last = match range {
            Range::Any => next,
            Range::Priceable => next.clamp(LOW, HIGH - 1),
        };
        WordAddr::new(*last)
    }

    fn gen_u32(rng: &mut SplitMix64) -> u32 {
        match rng.gen_range(0u8..6) {
            0 => 0,
            1 => u32::MAX,
            2 => rng.next_u64() as u32,
            3 => rng.gen_range(0u32..70_000),
            _ => 1 << rng.gen_range(0u32..5),
        }
    }

    /// A fill or victim size in words.
    fn gen_words(rng: &mut SplitMix64, range: Range) -> u32 {
        let max = match range {
            Range::Any => MAX_BLOCK_WORDS,
            Range::Priceable => 16,
        };
        1 << rng.gen_range(0..max.trailing_zeros() + 1)
    }

    /// A miss's fetch start, fill size (sometimes a new one) and victim.
    fn gen_miss(
        rng: &mut SplitMix64,
        addr: WordAddr,
        fill: &mut u32,
        range: Range,
    ) -> (WordAddr, u32, Option<VictimBlock>) {
        if rng.gen_bool(0.2) {
            *fill = gen_words(rng, range);
        }
        let victim = rng.gen_bool(0.4).then(|| {
            let words = if rng.gen_bool(0.7) {
                *fill
            } else {
                gen_words(rng, range)
            };
            let at = match (range, rng.gen_bool(0.5)) {
                (_, true) => addr.value().wrapping_add(rng.gen_range(0u64..100_000)),
                (Range::Any, false) => rng.next_u64(),
                (Range::Priceable, false) => rng.gen_range(LOW..HIGH),
            };
            VictimBlock {
                addr: WordAddr::new(aligned(at, words)),
                words,
            }
        });
        (WordAddr::new(aligned(addr.value(), *fill)), *fill, victim)
    }

    /// A general record for couplet side `side` (0 = the ifetch half,
    /// which only reads).
    fn gen_record(
        rng: &mut SplitMix64,
        side: usize,
        last: &mut u64,
        pid: &mut u16,
        fill: &mut u32,
        range: Range,
    ) -> RefEvent {
        let addr = gen_addr(rng, last, range);
        if rng.gen_bool(0.15) {
            *pid = if rng.gen_bool(0.5) {
                rng.next_u64() as u16
            } else {
                pid.wrapping_add(1)
            };
        }
        let walk_cycles = if rng.gen_bool(0.15) {
            match (range, rng.gen_range(0u8..4)) {
                (_, 0) => 1,
                (_, 1) => 30,
                (Range::Any, 2) => u64::MAX,
                (Range::Any, _) => rng.next_u64(),
                (Range::Priceable, _) => rng.gen_range(1u64..HIGH),
            }
        } else {
            0
        };
        let through = rng.gen_bool(0.5);
        let kind = if side == 0 {
            [0, 1, 5, 6][rng.gen_range(0usize..4)]
        } else {
            rng.gen_range(0u8..8)
        };
        let access = match kind {
            0 => AccessEvent::ReadHit,
            1 => {
                let (fetch_start, fill_words, victim) = gen_miss(rng, addr, fill, range);
                AccessEvent::ReadMiss {
                    fetch_start,
                    fill_words,
                    victim,
                }
            }
            2 => AccessEvent::WriteHit { through },
            3 => AccessEvent::WriteMissAround,
            4 => {
                let (fetch_start, fill_words, victim) = gen_miss(rng, addr, fill, range);
                AccessEvent::WriteMissAllocate {
                    fetch_start,
                    fill_words,
                    victim,
                    through,
                }
            }
            5 => AccessEvent::ReadSlowHit,
            6 => AccessEvent::ReadVictimHit,
            _ => AccessEvent::WriteVictimHit { through },
        };
        RefEvent {
            addr,
            pid: Pid(*pid),
            walk_cycles,
            access,
        }
    }

    /// A random op sequence: hit runs (some with counts past a byte),
    /// lone clean misses on either side with pid changes, couplets of
    /// general records, and warm boundaries.
    pub(crate) fn gen_ops(rng: &mut SplitMix64, range: Range) -> Vec<Op> {
        let (mut last, mut pid) = ([0u64; 2], 0u16);
        // The stream starts at fill 0, which no miss has, so the first
        // miss sets a real fill through a general record.
        let mut fill = 4;
        (0..rng.gen_range(1usize..60))
            .map(|_| match rng.gen_range(0u8..10) {
                0..=2 => {
                    let mut counts = [0u32; CoupletClass::COUNT];
                    for c in &mut counts {
                        if rng.gen_bool(0.4) {
                            *c = if rng.gen_bool(0.8) {
                                rng.gen_range(1u32..256)
                            } else {
                                gen_u32(rng)
                            };
                        }
                    }
                    if counts == [0; CoupletClass::COUNT] {
                        counts[rng.gen_range(0..CoupletClass::COUNT)] = 1;
                    }
                    Op::HitRun { counts }
                }
                3..=5 => {
                    let side = rng.gen_range(0usize..2);
                    let addr = gen_addr(rng, &mut last[side], range);
                    if rng.gen_bool(0.1) {
                        pid = rng.next_u64() as u16;
                    }
                    let e = Some(RefEvent {
                        addr,
                        pid: Pid(pid),
                        walk_cycles: 0,
                        access: AccessEvent::ReadMiss {
                            fetch_start: WordAddr::new(aligned(addr.value(), fill)),
                            fill_words: fill,
                            victim: None,
                        },
                    });
                    if side == 0 {
                        Op::Couplet {
                            iref: e,
                            dref: None,
                        }
                    } else {
                        Op::Couplet {
                            iref: None,
                            dref: e,
                        }
                    }
                }
                6..=8 => {
                    let iref = rng
                        .gen_bool(0.6)
                        .then(|| gen_record(rng, 0, &mut last[0], &mut pid, &mut fill, range));
                    let dref = (rng.gen_bool(0.7) || iref.is_none())
                        .then(|| gen_record(rng, 1, &mut last[1], &mut pid, &mut fill, range));
                    Op::Couplet { iref, dref }
                }
                _ => Op::WarmBoundary,
            })
            .collect()
    }
}
