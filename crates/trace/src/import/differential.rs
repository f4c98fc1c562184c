//! Differential tests of the byte-level line path against the `&str`
//! parsers it defers to.
//!
//! Random streams mix well-formed lines with the edges where the two
//! could drift apart: every ASCII separator `split_whitespace` knows,
//! CRLF endings and a missing final newline, `0x`/`0X` prefixes and
//! mixed-case hex, 17+ digit addresses with and without leading zeros,
//! `+` signs, pids around `u16::MAX`, lackey sizes and `M` lines,
//! comments and banners, Unicode whitespace and invalid UTF-8. Two
//! properties hold:
//!
//! * wherever a byte parser accepts a line, the `&str` parser yields the
//!   same references and truncation flag for it;
//! * a whole stream parses to the same items (errors by format, line and
//!   message), and the same truncation count, as `BufRead::lines` fed
//!   line by line to the `&str` parser — through the slice itself and
//!   through `BufReader`s of 1, 7 and 64 bytes.

use super::{ImportIter, TraceFormat};
use crate::io::{self, Alignment, DinIter, ParseDinError};
use crate::lines::{self, LineRefs};
use cachetime_testkit::{check, prop_assert_eq, shrink, SplitMix64};
use cachetime_types::{MemRef, Pid, WordAddr};
use std::io::{BufRead, BufReader};

/// One parser with both of its paths: an import format, or `din` under
/// the strict [`Alignment::Reject`] that [`DinIter::new`] uses.
#[derive(Debug, Clone, Copy)]
enum Parser {
    Import(TraceFormat),
    StrictDin,
}

const PARSERS: [Parser; 4] = [
    Parser::Import(TraceFormat::Din),
    Parser::Import(TraceFormat::ChampSim),
    Parser::Import(TraceFormat::Lackey),
    Parser::StrictDin,
];

impl Parser {
    fn format(self) -> TraceFormat {
        match self {
            Parser::Import(f) => f,
            Parser::StrictDin => TraceFormat::Din,
        }
    }

    fn fast(self, line: &[u8]) -> Option<LineRefs> {
        match self {
            Parser::Import(f) => ImportIter::<&[u8]>::parse_bytes(f, line),
            Parser::StrictDin => lines::din(line, Alignment::Reject),
        }
    }

    /// The `&str` path, its error as the iterator would print it.
    fn slow(self, line: &str, lineno: usize) -> Result<LineRefs, String> {
        match self {
            Parser::Import(f) => {
                ImportIter::<&[u8]>::parse_str(f, line, lineno).map_err(|e| e.to_string())
            }
            Parser::StrictDin => {
                io::parse_line(line, lineno, Alignment::Reject).map_err(|e| e.to_string())
            }
        }
    }

    fn read_failed(self, e: std::io::Error, line: usize) -> String {
        let message = format!("read failed: {e}");
        match self {
            Parser::Import(format) => super::ImportError {
                format,
                line,
                message,
            }
            .to_string(),
            Parser::StrictDin => ParseDinError { line, message }.to_string(),
        }
    }

    /// The stream through the public iterator: items, then truncations.
    fn run<R: BufRead>(self, reader: R) -> (Vec<Result<MemRef, String>>, u64) {
        match self {
            Parser::Import(f) => {
                let mut it = ImportIter::new(reader, f);
                let items = it.by_ref().map(|r| r.map_err(|e| e.to_string())).collect();
                (items, it.truncated())
            }
            Parser::StrictDin => {
                let mut it = DinIter::new(reader);
                let items = it.by_ref().map(|r| r.map_err(|e| e.to_string())).collect();
                (items, it.truncated())
            }
        }
    }

    /// The stream as `BufRead::lines` and the `&str` parser alone read
    /// it, counting both references of a lackey `M`.
    fn model(self, text: &[u8]) -> (Vec<Result<MemRef, String>>, u64) {
        let mut items = Vec::new();
        let mut truncated = 0;
        for (i, line) in text.lines().enumerate() {
            let parsed = match line {
                Ok(line) => self.slow(&line, i + 1),
                Err(e) => Err(self.read_failed(e, i + 1)),
            };
            match parsed {
                Ok(None) => {}
                Ok(Some((r, follow, t))) => {
                    for r in std::iter::once(r).chain(follow) {
                        items.push(Ok(r));
                        truncated += u64::from(t);
                    }
                }
                Err(e) => {
                    items.push(Err(e));
                    break;
                }
            }
        }
        (items, truncated)
    }
}

fn pick<'a>(rng: &mut SplitMix64, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// A field separator: mostly ASCII, sometimes Unicode whitespace the
/// `&str` parsers split on and the byte parsers decline.
fn sep(rng: &mut SplitMix64) -> &'static str {
    pick(
        rng,
        &[
            " ", " ", " ", " ", "  ", "\t", "\x0B", "\x0C", "\r", " \t ", "\u{a0}", "\u{85}",
        ],
    )
}

/// A hex address field: a prefix (sometimes a sign), then digits in mixed
/// case — usually a word-aligned value of 1–8 digits, sometimes up to 16,
/// and sometimes 17–20, with leading zeros (the value fits) or without
/// (it overflows).
fn hex_field(rng: &mut SplitMix64) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefABCDEF";
    let prefix = pick(
        rng,
        &[
            "", "", "", "", "0x", "0x", "0X", "+", "0x+", "-", "0x0x", "x",
        ],
    );
    let len = match rng.gen_range(0u32..10) {
        0..=6 => rng.gen_range(1usize..9),
        7 | 8 => rng.gen_range(9usize..17),
        _ => rng.gen_range(17usize..21),
    };
    let zeros = if len > 16 && rng.gen_bool(0.5) {
        len - 8
    } else {
        0
    };
    let mut digits: String = (0..len)
        .map(|i| {
            if i < zeros {
                '0'
            } else {
                char::from(DIGITS[rng.gen_range(0..DIGITS.len())])
            }
        })
        .collect();
    if rng.gen_bool(0.5) {
        digits.pop();
        digits.push(char::from(b"048cC"[rng.gen_range(0usize..5)]));
    }
    if rng.gen_range(0u32..30) == 0 {
        digits = pick(rng, &["", "zz", "1g", "é"]).to_string();
    }
    format!("{prefix}{digits}")
}

fn pid_field(rng: &mut SplitMix64) -> String {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0u64..65_536).to_string(),
        1 => pick(
            rng,
            &[
                "0",
                "7",
                "65535",
                "65536",
                "+5",
                "007",
                "0065535",
                "99999999999",
                "x1",
                "-1",
            ],
        )
        .to_string(),
        _ => String::new(),
    }
}

fn size_suffix(rng: &mut SplitMix64) -> &'static str {
    pick(
        rng,
        &[
            ",4",
            ",4",
            ",4",
            ",2",
            ",8",
            ",16",
            "",
            ",+4",
            ",",
            ",0000000000000000000004",
            ",9999999999999999999",
            ",99999999999999999999",
            ",4,5",
            ",x",
        ],
    )
}

/// One line, its ending included.
fn gen_line(rng: &mut SplitMix64, format: TraceFormat) -> Vec<u8> {
    let mut line = String::new();
    if rng.gen_bool(0.3) {
        line.push_str(sep(rng));
    }
    match rng.gen_range(0u32..24) {
        0 => line.push_str(pick(rng, &["#", "# c", "# é", "#0 10", "##"])),
        1 => line.push_str(pick(
            rng,
            &["", " ", "\t", "\r", "\x0B\x0C", "\u{a0}", "\u{85}"],
        )),
        2 => line.push_str(pick(
            rng,
            &["==123== lackey", "--9-- chatter", "==", "--", "-="],
        )),
        3 => {
            // Not UTF-8: `BufRead::lines` fails on it, comment or not.
            let mut bytes = line.into_bytes();
            bytes.extend_from_slice(pick(rng, &["0 10", "# c", "L 10", " L 10,4"]).as_bytes());
            bytes.push(0xFF);
            bytes.push(b'\n');
            return bytes;
        }
        _ => {
            let ops: &[&str] = match format {
                TraceFormat::Din => &["0", "1", "2"],
                TraceFormat::ChampSim => {
                    &["I", "F", "L", "R", "S", "W", "i", "f", "l", "r", "s", "w"]
                }
                TraceFormat::Lackey => &["I", "L", "S", "M"],
            };
            let op = if rng.gen_range(0u32..12) == 0 {
                pick(rng, &["3", "Q", "x", "LL", "+0", "00", "é", "l", "MM"])
            } else {
                pick(rng, ops)
            };
            line.push_str(op);
            line.push_str(sep(rng));
            line.push_str(&hex_field(rng));
            if format == TraceFormat::Lackey {
                line.push_str(size_suffix(rng));
            } else {
                let pid = pid_field(rng);
                if !pid.is_empty() {
                    line.push_str(sep(rng));
                    line.push_str(&pid);
                }
            }
            if rng.gen_range(0u32..30) == 0 {
                line.push_str(sep(rng));
                line.push_str("junk");
            }
        }
    }
    if rng.gen_bool(0.3) {
        line.push_str(sep(rng));
    }
    line.push_str(if rng.gen_bool(0.2) { "\r\n" } else { "\n" });
    line.into_bytes()
}

/// Lines (endings included) and whether the last keeps its newline.
type Stream = (Vec<Vec<u8>>, bool);

fn gen_stream(rng: &mut SplitMix64, format: TraceFormat) -> Stream {
    let n = rng.gen_range(1usize..48);
    let lines = (0..n).map(|_| gen_line(rng, format)).collect();
    (lines, rng.gen_bool(0.7))
}

fn text(&(ref lines, final_newline): &Stream) -> Vec<u8> {
    let mut text = lines.concat();
    if !final_newline {
        while text.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            text.pop();
        }
    }
    text
}

fn shrink_stream((lines, final_newline): &Stream) -> Vec<Stream> {
    shrink::vec_linear(lines)
        .into_iter()
        .map(|lines| (lines, *final_newline))
        .collect()
}

#[test]
fn byte_parsers_agree_with_the_str_parsers_wherever_they_accept() {
    for parser in PARSERS {
        check(
            &format!("byte_line_agrees_{parser:?}"),
            move |rng| gen_stream(rng, parser.format()),
            shrink_stream,
            move |stream| {
                for (i, line) in text(stream).split(|&b| b == b'\n').enumerate() {
                    let Some(fast) = parser.fast(line) else {
                        continue;
                    };
                    let Ok(line) = std::str::from_utf8(line) else {
                        return Err(format!("accepted a line that is not UTF-8: {line:?}"));
                    };
                    prop_assert_eq!(Ok(fast), parser.slow(line, i + 1), "line {:?}", line);
                }
                Ok(())
            },
        );
    }
}

#[test]
fn streams_parse_as_lines_and_the_str_parsers_do_through_any_buffer() {
    for parser in PARSERS {
        check(
            &format!("byte_stream_agrees_{parser:?}"),
            move |rng| gen_stream(rng, parser.format()),
            shrink_stream,
            move |stream| {
                let text = text(stream);
                let want = parser.model(&text);
                prop_assert_eq!(parser.run(&text[..]), want, "slice");
                for capacity in [1, 7, 64] {
                    let got = parser.run(BufReader::with_capacity(capacity, &text[..]));
                    prop_assert_eq!(got, want, "BufReader of {} bytes", capacity);
                }
                Ok(())
            },
        );
    }
}

#[test]
fn every_line_the_writers_emit_takes_the_byte_path() {
    let refs = [
        MemRef::ifetch(WordAddr::new(0x1000), Pid(0)),
        MemRef::load(WordAddr::new(0x3fff_ffff), Pid(0)),
        MemRef::store(WordAddr::new(0), Pid(0)),
    ];
    let with_pids = [refs[0], MemRef::load(WordAddr::new(7), Pid(u16::MAX))];
    for parser in PARSERS {
        let refs: &[MemRef] = if parser.format() == TraceFormat::Lackey {
            &refs
        } else {
            &with_pids
        };
        let mut text = Vec::new();
        super::write_format(&mut text, refs, parser.format()).unwrap();
        for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            assert!(
                parser.fast(line).is_some(),
                "{parser:?} {:?}",
                String::from_utf8_lossy(line)
            );
        }
    }
}

#[test]
fn the_byte_path_declines_what_only_the_str_parsers_accept() {
    for (parser, line) in [
        (Parser::Import(TraceFormat::Din), "0 +10"),
        (Parser::Import(TraceFormat::Din), "0 00000000000000001000"),
        (Parser::Import(TraceFormat::Din), "0 10 65535\u{a0}"),
        (Parser::Import(TraceFormat::Din), "\u{85}2 10 +7"),
        (Parser::Import(TraceFormat::ChampSim), "L 10 +65535"),
        (Parser::Import(TraceFormat::ChampSim), "L\u{a0}0x10"),
        (Parser::Import(TraceFormat::Lackey), " L 10,+4"),
        (
            Parser::Import(TraceFormat::Lackey),
            " L 10,00000000000000000000004",
        ),
        (Parser::Import(TraceFormat::Lackey), "# é"),
    ] {
        assert_eq!(parser.fast(line.as_bytes()), None, "{parser:?} {line:?}");
        let slow = parser.slow(line, 1);
        assert!(slow.is_ok(), "{parser:?} {line:?}: {slow:?}");
    }
    for (parser, line) in [
        (Parser::Import(TraceFormat::Din), "0 10000000000000000"),
        (Parser::Import(TraceFormat::Din), "0 10 65536"),
        (Parser::StrictDin, "0 1001"),
        (Parser::Import(TraceFormat::ChampSim), "L 0x"),
        (
            Parser::Import(TraceFormat::Lackey),
            " L 10,99999999999999999999",
        ),
    ] {
        assert_eq!(parser.fast(line.as_bytes()), None, "{parser:?} {line:?}");
        assert!(parser.slow(line, 1).is_err(), "{parser:?} {line:?}");
    }
}
