//! The byte-level line path shared by [`DinIter`](crate::io::DinIter) and
//! [`ImportIter`](crate::import::ImportIter).
//!
//! [`LineReader`] hands each line of a `BufRead` to its parser as a byte
//! slice borrowed from the reader's own buffer; only a line that straddles
//! a refill is copied, into one reused `Vec`. Per format, one byte parser
//! ([`din`], [`champsim`], [`lackey`]) decides every well-formed ASCII
//! line by itself, with a hex lookup table and no allocation. Whatever it
//! does not fully accept — a non-ASCII byte, a `+` sign, more than 16 hex
//! digits, a pid above 65,535, a malformed field — it declines (`None`),
//! and the line goes to the format's `&str` parser, which stays the single
//! authority on what such a line yields and how its error reads.

use crate::io::Alignment;
use cachetime_types::{AccessKind, MemRef, Pid, WordAddr, BYTES_PER_WORD};
use std::io::{self, BufRead};

/// The references of one line: one, or a load and its store (a lackey
/// `M`), plus whether the address lost sub-word bits.
pub(crate) type Refs = (MemRef, Option<MemRef>, bool);

/// What one line yields: nothing (a blank, comment or banner line) or its
/// [`Refs`].
pub(crate) type LineRefs = Option<Refs>;

/// Reads `\n`-terminated lines (the last may lack its `\n`) without
/// allocating per line, numbering them from 1.
#[derive(Debug)]
pub(crate) struct LineReader<R> {
    reader: R,
    /// A line that straddles a refill of the reader's buffer.
    spill: Vec<u8>,
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

    /// The 1-based number of the last line examined. Finding the end of
    /// input counts as examining one more line.
    pub(crate) fn line(&self) -> usize {
        self.lineno
    }

    /// The next line that yields references, skipping those that yield
    /// none; `None` at end of input. `fast` decides the line where it
    /// can, and `slow` where `fast` declines. A read failure comes back as
    /// `read_failed(error, line)`, and so does a line that is not UTF-8,
    /// with the error `BufRead::lines` reports for it.
    pub(crate) fn next_refs<E>(
        &mut self,
        fast: impl Fn(&[u8]) -> Option<LineRefs>,
        slow: impl Fn(&str, usize) -> Result<LineRefs, E>,
        read_failed: impl Fn(io::Error, usize) -> E,
    ) -> Option<Result<Refs, E>> {
        loop {
            let parsed = self.next_line(|line, lineno| match fast(line) {
                Some(refs) => Ok(refs),
                None => match std::str::from_utf8(line) {
                    Ok(text) => slow(text, lineno),
                    Err(_) => Err(read_failed(
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "stream did not contain valid UTF-8",
                        ),
                        lineno,
                    )),
                },
            });
            match parsed {
                Ok(None) => return None,
                Ok(Some(Ok(None))) => {}
                Ok(Some(Ok(Some(refs)))) => return Some(Ok(refs)),
                Ok(Some(Err(e))) => return Some(Err(e)),
                Err(e) => return Some(Err(read_failed(e, self.lineno))),
            }
        }
    }

    /// Applies `f` to the next line, without its `\n`, and its number;
    /// `Ok(None)` at end of input.
    fn next_line<T>(&mut self, f: impl FnOnce(&[u8], usize) -> T) -> io::Result<Option<T>> {
        self.lineno += 1;
        self.spill.clear();
        loop {
            let buf = match self.reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok((!self.spill.is_empty()).then(|| f(&self.spill, self.lineno)));
            }
            match find_newline(buf) {
                Some(i) if self.spill.is_empty() => {
                    let out = f(&buf[..i], self.lineno);
                    self.reader.consume(i + 1);
                    return Ok(Some(out));
                }
                Some(i) => {
                    self.spill.extend_from_slice(&buf[..i]);
                    self.reader.consume(i + 1);
                    return Ok(Some(f(&self.spill, self.lineno)));
                }
                None => {
                    let n = buf.len();
                    self.spill.extend_from_slice(buf);
                    self.reader.consume(n);
                }
            }
        }
    }
}

/// The index of the first `\n` in `buf`, eight bytes at a time.
// This and the byte parsers are `#[inline]` because their callers are
// generic over the reader, so they compile in the caller's crate.
#[inline]
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

/// Digit values of the hex characters; `0xFF` for every other byte.
static HEX: [u8; 256] = {
    let mut table = [0xFF; 256];
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
    table
};

/// The whitespace `str::split_whitespace` splits on, restricted to ASCII.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// A line parsed left to right. A non-ASCII byte never counts as
/// whitespace, so it stays inside a field, where no field parser accepts
/// it.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn skip_space(&mut self) {
        while let [b, rest @ ..] = self.rest {
            if !is_space(*b) {
                break;
            }
            self.rest = rest;
        }
    }

    /// Whether the current field ends here.
    fn at_field_end(&self) -> bool {
        self.rest.first().is_none_or(|&b| is_space(b))
    }

    /// The next whitespace-separated field.
    fn field(&mut self) -> Option<&'a [u8]> {
        self.skip_space();
        if self.rest.is_empty() {
            return None;
        }
        let end = self
            .rest
            .iter()
            .position(|&b| is_space(b))
            .unwrap_or(self.rest.len());
        let (field, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some(field)
    }

    /// The next field's leading hex address as the `&str` parsers read
    /// it: an optional `0x`/`0X`, then 1–16 hex digits. Stops at the first
    /// other byte, which the caller judges.
    fn hex(&mut self) -> Option<u64> {
        self.skip_space();
        if let [b'0', b'x' | b'X', rest @ ..] = self.rest {
            self.rest = rest;
        }
        let mut value = 0u64;
        let mut digits = 0;
        while let Some(&b) = self.rest.get(digits) {
            let d = HEX[usize::from(b)];
            if d > 15 {
                break;
            }
            value = value << 4 | u64::from(d);
            digits += 1;
        }
        self.rest = &self.rest[digits..];
        (1..=16).contains(&digits).then_some(value)
    }

    /// An optional last field, a decimal pid of at most `u16::MAX`.
    fn pid(&mut self) -> Option<Pid> {
        let Some(field) = self.field() else {
            return Some(Pid(0));
        };
        let mut value = 0u32;
        for &b in field {
            if !b.is_ascii_digit() {
                return None;
            }
            value = value * 10 + u32::from(b - b'0');
            if value > u32::from(u16::MAX) {
                return None;
            }
        }
        self.field().is_none().then_some(Pid(value as u16))
    }
}

/// Starts a line: the cursor past its first field, or what the line
/// yields when `skip` says that field opens a comment or banner (or there
/// is none). A skipped line must still be UTF-8, so it is taken only when
/// it is ASCII.
fn first_field<'a>(
    line: &'a [u8],
    skip: impl Fn(&[u8]) -> bool,
) -> Result<(&'a [u8], Cursor<'a>), Option<LineRefs>> {
    let mut cursor = Cursor { rest: line };
    match cursor.field() {
        None => Err(Some(None)),
        Some(first) if skip(first) => Err(line.is_ascii().then_some(None)),
        Some(first) => Ok((first, cursor)),
    }
}

/// `<op> <hex> [pid]`, the shape `din` and ChampSim share; `kind` reads
/// the op field.
fn op_hex_pid(
    line: &[u8],
    kind: impl Fn(&[u8]) -> Option<AccessKind>,
    alignment: Alignment,
) -> Option<LineRefs> {
    let (op, mut cursor) = match first_field(line, |f| f[0] == b'#') {
        Ok(start) => start,
        Err(skipped) => return skipped,
    };
    let kind = kind(op)?;
    let byte_addr = cursor.hex()?;
    if !cursor.at_field_end() {
        return None;
    }
    let pid = cursor.pid()?;
    let truncated = byte_addr % BYTES_PER_WORD != 0;
    if truncated && alignment == Alignment::Reject {
        return None;
    }
    let r = MemRef::new(WordAddr::from_byte_addr(byte_addr), kind, pid);
    Some(Some((r, None, truncated)))
}

/// `<0|1|2> <hex> [pid]`, as `io::parse_line` reads it under `alignment`.
#[inline]
pub(crate) fn din(line: &[u8], alignment: Alignment) -> Option<LineRefs> {
    let kind = |label: &[u8]| match label {
        b"0" => Some(AccessKind::Load),
        b"1" => Some(AccessKind::Store),
        b"2" => Some(AccessKind::IFetch),
        _ => None,
    };
    op_hex_pid(line, kind, alignment)
}

/// `<I|F|L|R|S|W> <hex> [pid]`, case-insensitive, as the ChampSim arm of
/// `ImportIter::parse_non_din` reads it.
#[inline]
pub(crate) fn champsim(line: &[u8]) -> Option<LineRefs> {
    let kind = |op: &[u8]| match op {
        [op] => match op.to_ascii_uppercase() {
            b'I' | b'F' => Some(AccessKind::IFetch),
            b'L' | b'R' => Some(AccessKind::Load),
            b'S' | b'W' => Some(AccessKind::Store),
            _ => None,
        },
        _ => None,
    };
    op_hex_pid(line, kind, Alignment::Truncate)
}

/// `<I|L|S|M> <hex>[,size]` plus `==`/`--` banners, as the lackey arm of
/// `ImportIter::parse_non_din` reads it.
#[inline]
pub(crate) fn lackey(line: &[u8]) -> Option<LineRefs> {
    let banner = |f: &[u8]| f[0] == b'#' || f.starts_with(b"==") || f.starts_with(b"--");
    let (op, mut cursor) = match first_field(line, banner) {
        Ok(start) => start,
        Err(skipped) => return skipped,
    };
    let kind = match op {
        b"I" => AccessKind::IFetch,
        b"L" | b"M" => AccessKind::Load,
        b"S" => AccessKind::Store,
        _ => return None,
    };
    let byte_addr = cursor.hex()?;
    // The access size, 1–19 digits (which always fit the `u64` the
    // `&str` parser checks it against), is validated and dropped.
    if let [b',', rest @ ..] = cursor.rest {
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if !(1..=19).contains(&digits) {
            return None;
        }
        cursor.rest = &rest[digits..];
    }
    if !cursor.at_field_end() || cursor.field().is_some() {
        return None;
    }
    let truncated = byte_addr % BYTES_PER_WORD != 0;
    let addr = WordAddr::from_byte_addr(byte_addr);
    let follow = (op == b"M").then(|| MemRef::store(addr, Pid(0)));
    Some(Some((MemRef::new(addr, kind, Pid(0)), follow, truncated)))
}
