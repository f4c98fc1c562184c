//! The byte-level line path shared by [`DinIter`](crate::io::DinIter),
//! [`ImportIter`](crate::import::ImportIter) and
//! [`import::parse_all`](crate::import::parse_all).
//!
//! [`LineReader`] decodes the lines of a `BufRead` in place, in the
//! reader's own buffer, as many as its [`Sink`] takes per `fill_buf`;
//! only a line that straddles a refill is copied, into one reused `Vec`.
//! Each line is decoded while it is scanned, left to right and once: the
//! op byte and the hex digits come from tables and word-at-a-time
//! arithmetic, and the `\n` that ends the last field ends the line, so no
//! separate newline search runs. The decoder decides every well-formed
//! ASCII line by itself, with no allocation. Whatever it does not fully
//! accept — a non-ASCII byte, a `+` sign, more than 16 hex digits, a pid
//! above 65,535, a malformed field — it declines, and the line goes to
//! its [`Grammar`]'s `&str` parser, which stays the single authority on
//! what such a line yields and how its error reads.

use crate::io::Alignment;
use cachetime_types::{AccessKind, MemRef, Pid, WordAddr, BYTES_PER_WORD};
use std::io::{self, BufRead};

/// The references of one line: one, or a load and its store (a lackey
/// `M`), plus whether the address lost sub-word bits.
pub(crate) type Refs = (MemRef, Option<MemRef>, bool);

/// What one line yields: nothing (a blank, comment or banner line) or its
/// [`Refs`].
pub(crate) type LineRefs = Option<Refs>;

/// One text grammar: the byte path's [`Dialect`] of it, and the `&str`
/// parser that judges every line the byte path declines.
pub(crate) trait Grammar {
    /// How a bad line or a failed read is reported.
    type Error;

    /// The byte-level tables of this grammar.
    fn dialect(&self) -> Dialect;

    /// What `line` (1-based number `lineno`, its `\n` removed) yields.
    fn parse_str(&self, line: &str, lineno: usize) -> Result<LineRefs, Self::Error>;

    /// A read that failed, or a line that is not UTF-8, at line `lineno`.
    fn read_failed(&self, e: io::Error, lineno: usize) -> Self::Error;
}

/// Where decoded references go.
pub(crate) trait Sink {
    /// Takes one reference and whether its address lost sub-word bits.
    fn push(&mut self, r: MemRef, truncated: bool);

    /// Whether the sink takes no further line (a line yields at most two
    /// references).
    fn full(&self) -> bool;
}

/// Byte classes: a hex digit's value (0–15), or one of these.
const SPACE: u8 = 16;
const NEWLINE: u8 = 17;
const OTHER: u8 = 18;

/// The class of every byte. `SPACE` is the ASCII whitespace
/// `str::split_whitespace` splits on, less `\n`; a non-ASCII byte is
/// never whitespace, so it stays inside a field, where no field decoder
/// accepts it.
static CLASS: [u8; 256] = {
    let mut table = [OTHER; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table[b' ' as usize] = SPACE;
    table[b'\t' as usize] = SPACE;
    table[0x0B] = SPACE;
    table[0x0C] = SPACE;
    table[b'\r' as usize] = SPACE;
    table[b'\n' as usize] = NEWLINE;
    table
};

/// What a line's first byte opens: an access kind (`AccessKind as u8`),
/// or one of these.
const MODIFY: u8 = 3;
/// `#`: the line is a comment.
const COMMENT: u8 = 4;
/// A lackey `=` or `-`: a banner when the next byte repeats it.
const BANNER: u8 = 5;
const BAD: u8 = 6;

/// An op table: `BAD` but for the listed `(byte, op)` pairs.
const fn ops(pairs: &[(u8, u8)]) -> [u8; 256] {
    let mut table = [BAD; 256];
    table[b'#' as usize] = COMMENT;
    let mut i = 0;
    while i < pairs.len() {
        table[pairs[i].0 as usize] = pairs[i].1;
        i += 1;
    }
    table
}

const IFETCH: u8 = AccessKind::IFetch as u8;
const LOAD: u8 = AccessKind::Load as u8;
const STORE: u8 = AccessKind::Store as u8;

/// The access kind of each op below `COMMENT`; a modify's first half is
/// its load.
static KINDS: [AccessKind; 4] = [
    AccessKind::IFetch,
    AccessKind::Load,
    AccessKind::Store,
    AccessKind::Load,
];

static DIN_OPS: [u8; 256] = ops(&[(b'0', LOAD), (b'1', STORE), (b'2', IFETCH)]);
static CHAMPSIM_OPS: [u8; 256] = ops(&[
    (b'I', IFETCH),
    (b'i', IFETCH),
    (b'F', IFETCH),
    (b'f', IFETCH),
    (b'L', LOAD),
    (b'l', LOAD),
    (b'R', LOAD),
    (b'r', LOAD),
    (b'S', STORE),
    (b's', STORE),
    (b'W', STORE),
    (b'w', STORE),
]);
static LACKEY_OPS: [u8; 256] = ops(&[
    (b'I', IFETCH),
    (b'L', LOAD),
    (b'S', STORE),
    (b'M', MODIFY),
    (b'=', BANNER),
    (b'-', BANNER),
]);

/// A line shape the byte path reads: `<op> <hex> [pid]` (`din`,
/// ChampSim) or `<op> <hex>[,size]` (lackey).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dialect {
    ops: &'static [u8; 256],
    /// Lackey: an optional `,size` suffix, and no pid field.
    sized: bool,
    /// Strict `din`: a sub-word address is the `&str` parser's error.
    reject_unaligned: bool,
}

impl Dialect {
    /// `<0|1|2> <hex> [pid]`, as `io::parse_line` reads it under
    /// `alignment`.
    pub(crate) fn din(alignment: Alignment) -> Dialect {
        Dialect {
            ops: &DIN_OPS,
            sized: false,
            reject_unaligned: alignment == Alignment::Reject,
        }
    }

    /// `<I|F|L|R|S|W> <hex> [pid]`, case-insensitive, as the ChampSim arm
    /// of `import::parse_non_din` reads it.
    pub(crate) const CHAMPSIM: Dialect = Dialect {
        ops: &CHAMPSIM_OPS,
        sized: false,
        reject_unaligned: false,
    };

    /// `<I|L|S|M> <hex>[,size]` plus `==`/`--` banners, as the lackey arm
    /// of `import::parse_non_din` reads it.
    pub(crate) const LACKEY: Dialect = Dialect {
        ops: &LACKEY_OPS,
        sized: true,
        reject_unaligned: false,
    };
}

/// What the byte path made of the line at the front of a buffer.
enum Scan {
    /// The line is this many bytes long, its `\n` included, and yields
    /// its [`LineRefs`].
    Line(usize, LineRefs),
    /// The line is the `&str` parser's to judge.
    Decline,
    /// The buffer ends inside the line.
    Partial,
}

/// The byte at `buf[p]`, or `Scan::Partial` from the enclosing function.
macro_rules! byte_at {
    ($buf:expr, $p:expr) => {
        match $buf.get($p) {
            Some(&b) => b,
            None => return Scan::Partial,
        }
    };
}

/// Skips `SPACE` bytes from `buf[p]` on; `b` becomes the first other byte.
macro_rules! skip_space {
    ($buf:expr, $p:ident, $b:ident) => {
        while CLASS[usize::from($b)] == SPACE {
            $p += 1;
            $b = byte_at!($buf, $p);
        }
    };
}

/// Decodes the line at the front of `buf`. A line that ends in its `\n`
/// is never `Partial`: no read goes past the `\n` of a complete line
/// except [`hex`]'s, which stays inside `buf`.
#[inline(always)]
fn scan(buf: &[u8], d: Dialect) -> Scan {
    let mut p = 0;
    let mut b = byte_at!(buf, p);
    skip_space!(buf, p, b);
    if b == b'\n' {
        return Scan::Line(p + 1, None);
    }
    let op = d.ops[usize::from(b)];
    if op >= COMMENT {
        return skip_line(buf, p, op);
    }
    // The op is one byte, and a separator follows it.
    p += 1;
    b = byte_at!(buf, p);
    if CLASS[usize::from(b)] != SPACE {
        return Scan::Decline;
    }
    skip_space!(buf, p, b);
    if b == b'0' && byte_at!(buf, p + 1) | 0x20 == b'x' {
        p = past_prefix(p);
    }
    let Some((byte_addr, digits)) = hex(buf, p) else {
        return Scan::Partial;
    };
    if !(1..=16).contains(&digits) {
        return Scan::Decline;
    }
    p += digits;
    b = byte_at!(buf, p);
    if d.sized && b == b',' {
        // The access size, 1–19 digits (which always fit the `u64` the
        // `&str` parser checks it against), is validated and dropped.
        let start = p + 1;
        p = start;
        b = byte_at!(buf, p);
        while b.is_ascii_digit() {
            p += 1;
            b = byte_at!(buf, p);
        }
        if !(1..=19).contains(&(p - start)) {
            return Scan::Decline;
        }
    }
    let mut pid = 0;
    if b != b'\n' {
        if CLASS[usize::from(b)] != SPACE {
            return Scan::Decline;
        }
        skip_space!(buf, p, b);
        if b != b'\n' {
            if d.sized {
                return Scan::Decline;
            }
            // A decimal pid of at most `u16::MAX`, then the line's end.
            let mut value = 0u32;
            while b.is_ascii_digit() {
                value = value * 10 + u32::from(b - b'0');
                if value > u32::from(u16::MAX) {
                    return Scan::Decline;
                }
                p += 1;
                b = byte_at!(buf, p);
            }
            if CLASS[usize::from(b)] != SPACE && b != b'\n' {
                return Scan::Decline;
            }
            skip_space!(buf, p, b);
            if b != b'\n' {
                return Scan::Decline;
            }
            pid = value as u16;
        }
    }
    let truncated = byte_addr % BYTES_PER_WORD != 0;
    if truncated && d.reject_unaligned {
        return Scan::Decline;
    }
    let addr = WordAddr::from_byte_addr(byte_addr);
    // A lookup, not a branch: the kinds of a trace's lines do not repeat
    // in any pattern a branch predictor could learn.
    let kind = KINDS[usize::from(op & 3)];
    let follow = (op == MODIFY).then(|| MemRef::store(addr, Pid(0)));
    let r = MemRef::new(addr, kind, Pid(pid));
    Scan::Line(p + 1, Some((r, follow, truncated)))
}

/// The position past a `0x` prefix at `p`. Out of line so that the
/// compiler keeps the prefix test a branch, which a body takes on every
/// line or on none: as a select it would put two byte loads on the chain
/// from one line's start to the next.
#[inline(never)]
fn past_prefix(p: usize) -> usize {
    p + 2
}

/// A line whose first byte (at `p`) opens no reference: a comment or
/// banner is skipped whole, if it is ASCII (a skipped line must still be
/// UTF-8); anything else is declined.
#[cold]
fn skip_line(buf: &[u8], p: usize, op: u8) -> Scan {
    if op == BAD || (op == BANNER && byte_at!(buf, p + 1) != buf[p]) {
        return Scan::Decline;
    }
    match find_newline(&buf[p..]) {
        Some(i) if buf[..p + i].is_ascii() => Scan::Line(p + i + 1, None),
        Some(_) => Scan::Decline,
        None => Scan::Partial,
    }
}

/// The hex number at `buf[p..]`: its value and how many digits it has,
/// 17 standing for "more than 16". `None` if `buf` ends inside it.
#[inline(always)]
fn hex(buf: &[u8], p: usize) -> Option<(u64, usize)> {
    if let Some(words) = buf.get(p..p + 16) {
        // Both words are decoded and the second is kept only if the
        // first is all digits: selects, not a branch, since addresses
        // of 6, 8 and 9 digits mix at random in real traces.
        let (lo, hi) = words.split_at(8);
        let (high, n) = hex8(lo.try_into().expect("eight bytes"));
        let (low, m) = hex8(hi.try_into().expect("eight bytes"));
        let m = if n == 8 { m } else { 0 };
        let value = if m > 0 { high << (4 * m) | low } else { high };
        if n + m < 16 {
            return Some((value, n + m));
        }
        let more = CLASS[usize::from(*buf.get(p + 16)?)] < SPACE;
        return Some((value, if more { 17 } else { 16 }));
    }
    // Near the end of the buffer: a digit at a time.
    let mut value = 0u64;
    let mut n = 0;
    loop {
        let digit = CLASS[usize::from(*buf.get(p + n)?)];
        if digit >= SPACE {
            return Some((value, n));
        }
        if n == 16 {
            return Some((value, 17));
        }
        value = value << 4 | u64::from(digit);
        n += 1;
    }
}

/// The leading hex digits of eight bytes, all at once: their value and
/// count (0–8).
#[inline(always)]
fn hex8(bytes: [u8; 8]) -> (u64, usize) {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = ONES * 0x80;
    /// Per byte, the high bit iff `lo < byte < hi` (both at most 0x80).
    fn between(x: u64, lo: u64, hi: u64) -> u64 {
        let low7 = x & !HIGHS;
        (ONES * (127 + hi)).wrapping_sub(low7) & !x & (low7 + ONES * (127 - lo)) & HIGHS
    }
    let w = u64::from_le_bytes(bytes);
    let digit = between(w, b'0' as u64 - 1, b'9' as u64 + 1);
    let letter = between(w | (ONES * 0x20), b'a' as u64 - 1, b'f' as u64 + 1);
    let n = ((!(digit | letter) & HIGHS).trailing_zeros() / 8) as usize;
    // Each byte's digit value; bytes past the digits are shifted out, and
    // the rest are reversed so the last digit is the lowest byte.
    let values = (w & (ONES * 0x0F)) + (letter >> 7) * 9;
    let mut x = values
        .checked_shl(64 - 8 * n as u32)
        .unwrap_or(0)
        .swap_bytes();
    // Pack the byte-wide digits into nibbles.
    x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
    x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
    x = (x | x >> 16) & 0x0000_0000_FFFF_FFFF;
    (x, n)
}

/// The index of the first `\n` in `buf`, eight bytes at a time. Only
/// declined, skipped and straddling lines need it.
fn find_newline(buf: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut chunks = buf.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ NEWLINES;
        // Nonzero iff some byte of `word` is zero; its lowest set bit
        // marks the first such byte.
        let zero = word.wrapping_sub(ONES) & !word & HIGHS;
        if zero != 0 {
            return Some(base + zero.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    let tail = chunks.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| base + i)
}

/// Where [`decode`] stopped.
enum Stop {
    /// The sink is full.
    Full,
    /// The next line is the `&str` parser's.
    Declined,
    /// The buffer ends inside the next line (or is used up).
    Partial,
}

/// Hands a line's references to `sink`.
#[inline(always)]
fn put<S: Sink>(sink: &mut S, refs: LineRefs) {
    if let Some((r, follow, truncated)) = refs {
        sink.push(r, truncated);
        if let Some(store) = follow {
            sink.push(store, truncated);
        }
    }
}

/// Decodes whole lines from the front of `buf` into `sink`, counting
/// them in `lineno`; returns the bytes they took and why it stopped.
#[inline(always)]
fn decode<S: Sink>(buf: &[u8], d: Dialect, sink: &mut S, lineno: &mut usize) -> (usize, Stop) {
    let mut pos = 0;
    while !sink.full() {
        match scan(&buf[pos..], d) {
            Scan::Line(len, refs) => {
                pos += len;
                *lineno += 1;
                put(sink, refs);
            }
            Scan::Decline => return (pos, Stop::Declined),
            Scan::Partial => return (pos, Stop::Partial),
        }
    }
    (pos, Stop::Full)
}

/// Judges one complete line without its `\n` (line `lineno`) by the
/// `&str` parser, failing it as `BufRead::lines` would if it is not
/// UTF-8.
#[cold]
fn judge<G: Grammar, S: Sink>(
    g: &G,
    line: &[u8],
    lineno: usize,
    sink: &mut S,
) -> Result<(), G::Error> {
    let Ok(text) = std::str::from_utf8(line) else {
        let e = io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        );
        return Err(g.read_failed(e, lineno));
    };
    put(sink, g.parse_str(text, lineno)?);
    Ok(())
}

/// Decodes the `\n`-terminated line `line` whole, by the byte path or
/// the `&str` parser.
fn decode_line<G: Grammar, S: Sink>(
    g: &G,
    line: &[u8],
    lineno: usize,
    sink: &mut S,
) -> Result<(), G::Error> {
    match scan(line, g.dialect()) {
        Scan::Line(_, refs) => {
            put(sink, refs);
            Ok(())
        }
        _ => judge(g, &line[..line.len() - 1], lineno, sink),
    }
}

/// Reads `\n`-terminated lines (the last may lack its `\n`) without
/// allocating per line, numbering them from 1.
#[derive(Debug)]
pub(crate) struct LineReader<R> {
    reader: R,
    /// A line that straddles a refill of the reader's buffer.
    spill: Vec<u8>,
    /// Lines decoded so far.
    lineno: usize,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        LineReader {
            reader,
            spill: Vec::new(),
            lineno: 0,
        }
    }

    /// Decodes the lines of the reader's next buffer into `sink`, until
    /// the buffer is used up or the sink is full: `Ok(false)` at the end
    /// of input, else `Ok(true)`. It reads again only to finish a line
    /// that straddles a refill, so a consumer of a pipe gets the lines
    /// that have arrived. A bad line or a failed read is an error once the
    /// references of every line before it are in `sink`.
    pub(crate) fn read_into<G: Grammar, S: Sink>(
        &mut self,
        g: &G,
        sink: &mut S,
    ) -> Result<bool, G::Error> {
        loop {
            let buf = match self.reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(g.read_failed(e, self.lineno + 1)),
            };
            if !self.spill.is_empty() {
                // Finish the line that straddles the refill.
                let (take, done) = match find_newline(buf) {
                    Some(i) => (i + 1, true),
                    None => (buf.len(), buf.is_empty()),
                };
                self.spill.extend_from_slice(&buf[..take]);
                self.reader.consume(take);
                if done {
                    if self.spill.last() != Some(&b'\n') {
                        self.spill.push(b'\n');
                    }
                    self.lineno += 1;
                    decode_line(g, &self.spill, self.lineno, sink)?;
                    self.spill.clear();
                }
                continue;
            }
            if buf.is_empty() {
                return Ok(false);
            }
            let (used, stop) = decode(buf, g.dialect(), sink, &mut self.lineno);
            match stop {
                Stop::Full => {
                    self.reader.consume(used);
                    return Ok(true);
                }
                Stop::Declined => {
                    let rest = &buf[used..];
                    let Some(len) = find_newline(rest) else {
                        // Its `\n` is past this buffer.
                        self.spill.extend_from_slice(rest);
                        let n = buf.len();
                        self.reader.consume(n);
                        continue;
                    };
                    self.lineno += 1;
                    let judged = judge(g, &rest[..len], self.lineno, sink);
                    self.reader.consume(used + len + 1);
                    judged?;
                }
                Stop::Partial => {
                    self.spill.extend_from_slice(&buf[used..]);
                    let n = buf.len();
                    self.reader.consume(n);
                    return Ok(true);
                }
            }
        }
    }
}

/// How many references one pull decodes ahead of its consumer.
const BATCH_REFS: usize = 128;

/// A fused pull over a [`LineReader`]: up to [`BATCH_REFS`] references
/// are decoded per refill and handed out one at a time; a bad line's
/// error follows the references before it and ends the stream.
#[derive(Debug)]
pub(crate) struct RefReader<R, G: Grammar> {
    lines: LineReader<R>,
    grammar: G,
    batch: Batch,
    /// Whether the input may hold more lines.
    more: bool,
    /// The error that ends the stream, once the batch is handed out.
    failed: Option<G::Error>,
    /// How many handed-out references lost sub-word address bits.
    truncated: u64,
}

/// Decoded references not yet handed out.
#[derive(Debug)]
struct Batch {
    refs: Vec<(MemRef, bool)>,
    next: usize,
}

impl Sink for Batch {
    #[inline(always)]
    fn push(&mut self, r: MemRef, truncated: bool) {
        self.refs.push((r, truncated));
    }

    #[inline(always)]
    fn full(&self) -> bool {
        self.refs.len() >= BATCH_REFS
    }
}

impl<R: BufRead, G: Grammar> RefReader<R, G> {
    pub(crate) fn new(reader: R, grammar: G) -> Self {
        RefReader {
            lines: LineReader::new(reader),
            grammar,
            batch: Batch {
                refs: Vec::with_capacity(BATCH_REFS + 1),
                next: 0,
            },
            more: true,
            failed: None,
            truncated: 0,
        }
    }

    /// How many handed-out references lost sub-word address bits.
    pub(crate) fn truncated(&self) -> u64 {
        self.truncated
    }

    #[cold]
    fn refill(&mut self) -> Option<Result<MemRef, G::Error>> {
        self.batch.refs.clear();
        self.batch.next = 0;
        while self.batch.refs.is_empty() && self.more && self.failed.is_none() {
            match self.lines.read_into(&self.grammar, &mut self.batch) {
                Ok(more) => self.more = more,
                Err(e) => self.failed = Some(e),
            }
        }
        if self.batch.refs.is_empty() {
            self.more = false;
            return self.failed.take().map(Err);
        }
        self.next()
    }
}

impl<R: BufRead, G: Grammar> Iterator for RefReader<R, G> {
    type Item = Result<MemRef, G::Error>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.batch.refs.get(self.batch.next) {
            Some(&(r, truncated)) => {
                self.batch.next += 1;
                self.truncated += u64::from(truncated);
                Some(Ok(r))
            }
            None => self.refill(),
        }
    }
}

/// The byte path's verdict on one line, its `\n` removed: what it yields,
/// or `None` where it declines.
#[cfg(test)]
pub(crate) fn verdict(line: &[u8], d: Dialect) -> Option<LineRefs> {
    let mut buf = line.to_vec();
    buf.push(b'\n');
    match scan(&buf, d) {
        Scan::Line(len, refs) => {
            assert_eq!(len, buf.len(), "one line");
            Some(refs)
        }
        Scan::Decline => None,
        Scan::Partial => unreachable!("a complete line"),
    }
}

/// `<0|1|2> <hex> [pid]`, as `io::parse_line` reads it under `alignment`.
#[cfg(test)]
pub(crate) fn din(line: &[u8], alignment: Alignment) -> Option<LineRefs> {
    verdict(line, Dialect::din(alignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_testkit::{check, prop_assert_eq};

    #[test]
    fn hex8_reads_the_leading_digits_of_a_word() {
        for (text, value, n) in [
            (&b"00000000"[..], 0, 8),
            (b"1a2B3c4D", 0x1a2b_3c4d, 8),
            (b"ffffffff", 0xffff_ffff, 8),
            (b"7\n......", 7, 1),
            (b"abc,4\n..", 0xabc, 3),
            (b"g0000000", 0, 0),
            (b" 1234567", 0, 0),
            (b"9/:@AFG`", 9, 1),
            (b"afgAF`gz", 0xaf, 2),
        ] {
            assert_eq!(
                hex8(text.try_into().unwrap()),
                (value, n),
                "{:?}",
                String::from_utf8_lossy(text)
            );
        }
    }

    #[test]
    fn hex8_agrees_with_a_digit_at_a_time() {
        check(
            "hex8_digitwise",
            |rng| {
                let mut bytes = [0u8; 8];
                for b in &mut bytes {
                    *b = match rng.next_u64() % 4 {
                        0 => rng.next_u64() as u8,
                        _ => b"0123456789abcdefABCDEF"[(rng.next_u64() % 22) as usize],
                    };
                }
                bytes
            },
            |_| Vec::new(),
            |bytes| {
                let n = bytes
                    .iter()
                    .take_while(|b| CLASS[usize::from(**b)] < SPACE)
                    .count();
                let value = bytes[..n]
                    .iter()
                    .fold(0u64, |v, b| v << 4 | u64::from(CLASS[usize::from(*b)]));
                prop_assert_eq!(hex8(*bytes), (value, n), "{:?}", bytes);
                Ok(())
            },
        );
    }
}
