//! Reading and writing traces in the classic `din` (DineroIV) format.
//!
//! The synthetic catalog stands in for the paper's unavailable traces, but
//! the simulator is format-agnostic: any address trace in the widely used
//! `din` ASCII format can be fed in. Each line is
//!
//! ```text
//! <label> <hex-address> [pid]
//! ```
//!
//! with label `0` = data read, `1` = data write, `2` = instruction fetch,
//! and the address in (optionally `0x`-prefixed) hexadecimal **bytes**.
//! The optional third field is a `cachetime` extension carrying the
//! process id (default 0) so multiprogrammed traces round-trip; `#`-prefix
//! comment lines and blank lines are ignored.
//!
//! The simulator is word-granular ([`WordAddr`]), so a byte address that
//! is not a multiple of [`BYTES_PER_WORD`](cachetime_types::BYTES_PER_WORD)
//! cannot round-trip: `write_din` would emit the word-aligned address and
//! `write_din(parse_din(x)) != x`. Rather than corrupt silently, the
//! parser takes an explicit [`Alignment`] policy: the default
//! ([`Alignment::Reject`]) errors on sub-word offsets, so everything a
//! strict parse accepts round-trips byte-identically; byte-granular
//! sources (valgrind lackey, ChampSim) opt into [`Alignment::Truncate`],
//! which drops the sub-word bits and counts how many lines were affected
//! so callers can surface the loss instead of hiding it.

use crate::lines::{Dialect, Grammar, LineRefs, RefReader};
use crate::trace::Trace;
use cachetime_types::{AccessKind, MemRef, Pid, WordAddr, BYTES_PER_WORD};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// What to do with byte addresses that are not word-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Alignment {
    /// Error on sub-word byte addresses (the default): every reference a
    /// strict parse accepts serializes back to the identical text, so
    /// `write_din ∘ parse_din` is the identity on accepted input.
    #[default]
    Reject,
    /// Drop the sub-word bits (what `WordAddr::from_byte_addr` does) and
    /// count the affected lines. For byte-granular formats where sub-word
    /// offsets are expected, not suspicious.
    Truncate,
}

/// A malformed `din` line.
#[derive(Debug)]
pub struct ParseDinError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseDinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "din parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseDinError {}

impl From<ParseDinError> for io::Error {
    fn from(e: ParseDinError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Parses a `din` stream into references under the strict (default)
/// [`Alignment::Reject`] policy.
///
/// # Errors
///
/// Returns [`ParseDinError`] (wrapped in `io::Error` by the `From` impl
/// where convenient) on unknown labels, bad hex, sub-word addresses, or
/// trailing junk; plain `io::Error` on read failures is surfaced as a
/// parse error with the offending line number.
pub fn parse_din<R: BufRead>(reader: R) -> Result<Vec<MemRef>, ParseDinError> {
    DinIter::new(reader).collect()
}

/// The most bytes of an offending token a parse error repeats.
const QUOTE_BYTES: usize = 32;

/// An offending token as a parse error quotes it: `'token'`, or, past
/// [`QUOTE_BYTES`], its prefix cut on a char boundary and marked
/// `'prefix'... (N bytes)`. An upload may be one multi-megabyte token,
/// and its error is also an HTTP answer, so a message must stay short.
pub(crate) struct Quoted<'a>(pub(crate) &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let token = self.0;
        if token.len() <= QUOTE_BYTES {
            return write!(f, "'{token}'");
        }
        let mut cut = QUOTE_BYTES;
        while !token.is_char_boundary(cut) {
            cut -= 1;
        }
        write!(f, "'{}'... ({} bytes)", &token[..cut], token.len())
    }
}

/// Parses one `din` line: no reference for a blank or `#` comment line,
/// else one, with whether its address lost sub-word bits (never under
/// [`Alignment::Reject`], which errors instead). The authority on every
/// line the byte-level parser declines.
pub(crate) fn parse_line(
    line: &str,
    lineno: usize,
    alignment: Alignment,
) -> Result<LineRefs, ParseDinError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut fields = trimmed.split_whitespace();
    let label = fields.next().expect("nonempty line has a field");
    let kind = match label {
        "0" => AccessKind::Load,
        "1" => AccessKind::Store,
        "2" => AccessKind::IFetch,
        other => {
            return Err(ParseDinError {
                line: lineno,
                message: format!("unknown label {} (expected 0, 1, or 2)", Quoted(other)),
            })
        }
    };
    let addr_str = fields.next().ok_or_else(|| ParseDinError {
        line: lineno,
        message: "missing address field".into(),
    })?;
    let hex = addr_str
        .strip_prefix("0x")
        .or_else(|| addr_str.strip_prefix("0X"))
        .unwrap_or(addr_str);
    let byte_addr = u64::from_str_radix(hex, 16).map_err(|e| ParseDinError {
        line: lineno,
        message: format!("bad hex address {}: {e}", Quoted(addr_str)),
    })?;
    let pid = match fields.next() {
        None => Pid(0),
        Some(p) => Pid(p.parse().map_err(|e| ParseDinError {
            line: lineno,
            message: format!("bad pid {}: {e}", Quoted(p)),
        })?),
    };
    if let Some(junk) = fields.next() {
        return Err(ParseDinError {
            line: lineno,
            message: format!("trailing junk {}", Quoted(junk)),
        });
    }
    let truncated = byte_addr % BYTES_PER_WORD != 0;
    if truncated && alignment == Alignment::Reject {
        return Err(ParseDinError {
            line: lineno,
            message: format!(
                "sub-word byte address {byte_addr:#x} (not a multiple of {BYTES_PER_WORD}); \
                 word-truncating it would break the write/parse roundtrip — \
                 use Alignment::Truncate to accept byte-granular input"
            ),
        });
    }
    let r = MemRef::new(WordAddr::from_byte_addr(byte_addr), kind, pid);
    Ok(Some((r, None, truncated)))
}

/// Writes references as `din` lines (with the pid extension field whenever
/// a reference carries a nonzero pid).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_din<W: Write>(mut writer: W, refs: &[MemRef]) -> io::Result<()> {
    for r in refs {
        let label = match r.kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
            AccessKind::IFetch => 2,
        };
        if r.pid.0 == 0 {
            writeln!(writer, "{label} {:x}", r.addr.to_byte_addr())?;
        } else {
            writeln!(writer, "{label} {:x} {}", r.addr.to_byte_addr(), r.pid.0)?;
        }
    }
    Ok(())
}

/// A streaming `din` parser: yields one [`MemRef`] per data line without
/// materializing the file.
///
/// Pair with `Simulator::run_refs` to drive arbitrarily large traces at
/// constant memory. Errors surface as the iterator's `Err` items; parsing
/// stops at the first error — the iterator is fused, so after yielding an
/// `Err` (or reaching end of input) every subsequent `next()` is `None`.
/// Lines take the byte path [`ImportIter`](crate::import::ImportIter)
/// shares (see [its module](crate::import#the-byte-path)), so a line
/// costs no allocation.
///
/// # Examples
///
/// ```
/// use cachetime_trace::io::DinIter;
///
/// let refs: Result<Vec<_>, _> = DinIter::new("2 1000\n0 2004\n".as_bytes()).collect();
/// assert_eq!(refs.unwrap().len(), 2);
/// ```
#[derive(Debug)]
pub struct DinIter<R> {
    refs: RefReader<R, Alignment>,
}

impl<R: BufRead> DinIter<R> {
    /// Wraps a buffered reader with the strict default policy
    /// ([`Alignment::Reject`]).
    pub fn new(reader: R) -> Self {
        Self::with_alignment(reader, Alignment::Reject)
    }

    /// Wraps a buffered reader with an explicit sub-word address policy.
    pub fn with_alignment(reader: R, alignment: Alignment) -> Self {
        DinIter {
            refs: RefReader::new(reader, alignment),
        }
    }

    /// How many yielded references lost sub-word address bits so far
    /// (always 0 under [`Alignment::Reject`]).
    pub fn truncated(&self) -> u64 {
        self.refs.truncated()
    }
}

/// `din` under an [`Alignment`], for the shared line path.
impl Grammar for Alignment {
    type Error = ParseDinError;

    fn dialect(&self) -> Dialect {
        Dialect::din(*self)
    }

    fn parse_str(&self, line: &str, lineno: usize) -> Result<LineRefs, ParseDinError> {
        parse_line(line, lineno, *self)
    }

    fn read_failed(&self, e: io::Error, line: usize) -> ParseDinError {
        ParseDinError {
            line,
            message: format!("read failed: {e}"),
        }
    }
}

impl<R: BufRead> Iterator for DinIter<R> {
    type Item = Result<MemRef, ParseDinError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.refs.next()
    }
}

impl<R: BufRead> std::iter::FusedIterator for DinIter<R> {}

/// Reads a whole `din` file into a [`Trace`].
///
/// # Errors
///
/// I/O errors and [`ParseDinError`]s, both as `io::Error`.
pub fn read_din_trace(path: &std::path::Path, name: &str, warm_start: usize) -> io::Result<Trace> {
    let file = std::fs::File::open(path)?;
    let refs = parse_din(io::BufReader::new(file))?;
    if warm_start > refs.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("warm start {warm_start} beyond trace length {}", refs.len()),
        ));
    }
    Ok(Trace::new(name, refs, warm_start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_labels() {
        let input = "0 1000\n1 0x2004\n2 3ffc\n";
        let refs = parse_din(input.as_bytes()).unwrap();
        assert_eq!(refs.len(), 3);
        assert_eq!(
            refs[0],
            MemRef::load(WordAddr::from_byte_addr(0x1000), Pid(0))
        );
        assert_eq!(
            refs[1],
            MemRef::store(WordAddr::from_byte_addr(0x2004), Pid(0))
        );
        assert_eq!(
            refs[2],
            MemRef::ifetch(WordAddr::from_byte_addr(0x3ffc), Pid(0))
        );
    }

    #[test]
    fn pid_extension_and_comments() {
        let input = "# a comment\n\n0 100 7\n";
        let refs = parse_din(input.as_bytes()).unwrap();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].pid, Pid(7));
    }

    #[test]
    fn rejects_bad_input_with_line_numbers() {
        for (input, needle) in [
            ("3 100\n", "unknown label"),
            ("0\n", "missing address"),
            ("0 zzz\n", "bad hex"),
            ("0 100 1 extra\n", "trailing junk"),
            ("0 100 notanum\n", "bad pid"),
        ] {
            let err = parse_din(format!("0 0\n{input}").as_bytes()).unwrap_err();
            assert_eq!(err.line, 2, "{input}");
            assert!(err.to_string().contains(needle), "{input}: {err}");
        }
    }

    #[test]
    fn a_long_token_is_quoted_by_a_prefix_cut_on_a_char_boundary() {
        assert_eq!(Quoted("zzz").to_string(), "'zzz'");
        // Byte 32 falls inside the sixteenth `é`, so the cut backs off
        // to the end of the fifteenth.
        let token = format!("a{}", "é".repeat(40));
        let quoted = Quoted(&token).to_string();
        assert_eq!(quoted, format!("'a{}'... (81 bytes)", "é".repeat(15)));
    }

    #[test]
    fn round_trips() {
        let refs = vec![
            MemRef::load(WordAddr::new(0x40), Pid(0)),
            MemRef::store(WordAddr::new(0x41), Pid(3)),
            MemRef::ifetch(WordAddr::new(0x1000), Pid(1)),
        ];
        let mut buf = Vec::new();
        write_din(&mut buf, &refs).unwrap();
        let back = parse_din(buf.as_slice()).unwrap();
        assert_eq!(refs, back);
    }

    #[test]
    fn strict_parse_rejects_sub_word_byte_addresses() {
        // Regression: the old parser word-truncated "1001" silently, so
        // write_din(parse_din(x)) was not identity. Strict mode now errors.
        let err = parse_din("0 1000\n0 1001\n".as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("sub-word"), "{err}");
    }

    #[test]
    fn truncate_policy_accepts_and_counts_sub_word_addresses() {
        let mut it =
            DinIter::with_alignment("0 1001\n0 1002\n0 1004\n".as_bytes(), Alignment::Truncate);
        let refs: Vec<MemRef> = it.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(refs[0].addr, refs[1].addr, "same word");
        assert_ne!(refs[1].addr, refs[2].addr);
        assert_eq!(it.truncated(), 2, "two of three lines lost sub-word bits");
    }

    #[test]
    fn strict_roundtrip_is_identity_on_accepted_input() {
        // Everything strict parse accepts must serialize back to the same
        // bytes (modulo the canonical single-space/no-0x formatting, which
        // this input already uses).
        let text = "0 1000\n1 2004 3\n2 3ffc\n";
        let refs = parse_din(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_din(&mut buf, &refs).unwrap();
        assert_eq!(std::str::from_utf8(&buf).unwrap(), text);
    }

    #[test]
    fn streaming_iterator_matches_batch_parse() {
        let input = "# c\n2 1000\n\n0 2004 3\n1 abc0\n";
        let batch = parse_din(input.as_bytes()).unwrap();
        let streamed: Result<Vec<_>, _> = DinIter::new(input.as_bytes()).collect();
        assert_eq!(batch, streamed.unwrap());
    }

    #[test]
    fn streaming_iterator_reports_error_line() {
        let mut it = DinIter::new("0 10\n5 20\n".as_bytes());
        assert!(it.next().unwrap().is_ok());
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn streaming_iterator_is_fused_after_an_error() {
        // Regression: the doc promises parsing stops at the first error,
        // but the iterator used to keep yielding refs from lines after the
        // malformed one.
        let mut it = DinIter::new("0 10\n5 20\n0 30\n0 40\n".as_bytes());
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "fused after the first error");
        assert!(it.next().is_none(), "stays fused");
    }

    #[test]
    fn streaming_iterator_is_fused_after_end() {
        let mut it = DinIter::new("0 10\n".as_bytes());
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().is_none());
        assert!(it.next().is_none());
    }

    #[test]
    fn lines_that_have_arrived_are_yielded_without_reading_again() {
        /// A pipe that has delivered two lines and would block on a
        /// further read.
        struct Pipe {
            data: &'static [u8],
            pos: usize,
        }
        impl io::Read for Pipe {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                unreachable!("read through fill_buf")
            }
        }
        impl BufRead for Pipe {
            fn fill_buf(&mut self) -> io::Result<&[u8]> {
                assert!(self.pos < self.data.len(), "read past what arrived");
                Ok(&self.data[self.pos..])
            }
            fn consume(&mut self, n: usize) {
                self.pos += n;
            }
        }
        let mut it = DinIter::new(Pipe {
            data: b"0 10\n1 20\n",
            pos: 0,
        });
        assert_eq!(it.next().unwrap().unwrap().addr, WordAddr::new(4));
        assert_eq!(it.next().unwrap().unwrap().addr, WordAddr::new(8));
    }

    #[test]
    fn file_round_trip_with_warm_start() {
        let dir = std::env::temp_dir().join("cachetime-din-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din");
        let refs: Vec<MemRef> = (0..10)
            .map(|i| MemRef::load(WordAddr::new(i), Pid(0)))
            .collect();
        let mut buf = Vec::new();
        write_din(&mut buf, &refs).unwrap();
        std::fs::write(&path, buf).unwrap();
        let trace = read_din_trace(&path, "t", 4).unwrap();
        assert_eq!(trace.len(), 10);
        assert_eq!(trace.warm_start(), 4);
        assert!(read_din_trace(&path, "t", 11).is_err());
        std::fs::remove_file(&path).ok();
    }
}
