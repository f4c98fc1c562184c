//! Upload ingestion against a reference composition written here.
//!
//! `upload::ingest` decodes a body in one fused loop (byte path, digest
//! and exactly-trimmed vector together) and `upload::select_intervals`
//! profiles the result in a branch-free second pass. This property pins
//! both to the slow, obvious composition of the same contract:
//!
//! * each line parsed on its own as text (`str::lines`, `trim`,
//!   `split_whitespace`, `from_str_radix`), by parsers written below;
//! * the digest as `keyed::upload_digest` of the whole trace;
//! * a per-window profile counted reference by reference with three
//!   plain direct-mapped tag arrays, fed to `Selection::pick`.
//!
//! Bodies come in all three formats with CRLF endings, comments, blank
//! lines, `==pid==`/`--pid--` banners, pids, `0x` prefixes, mixed-case
//! hex, lackey sizes and `M` lines, sub-word addresses, a missing final
//! newline, and random warm boundaries, window sizes and pick counts.
//! Refs, digest, truncation count and selection must match bit for bit.

use cachetime::keyed;
use cachetime_serve::upload::{self, SELECTION_SEED};
use cachetime_testkit::{check, prop_assert_eq, shrink, SplitMix64};
use cachetime_trace::import::TraceFormat;
use cachetime_trace::interval::{IntervalProfile, Selection, WindowFeatures};
use cachetime_trace::Trace;
use cachetime_types::{AccessKind, MemRef, Pid, WordAddr};

/// One generated upload.
#[derive(Debug, Clone)]
struct Upload {
    format: TraceFormat,
    /// Lines, their endings included.
    lines: Vec<String>,
    /// Whether the last line keeps its newline.
    final_newline: bool,
    warm: usize,
    window: Option<usize>,
    picks: usize,
}

impl Upload {
    fn body(&self) -> Vec<u8> {
        let mut text = self.lines.concat();
        if !self.final_newline {
            while text.ends_with(['\n', '\r']) {
                text.pop();
            }
        }
        text.into_bytes()
    }
}

fn pick<'a>(rng: &mut SplitMix64, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// A byte address: a word address of 1–40 bits, sometimes off the word
/// grid.
fn byte_addr(rng: &mut SplitMix64) -> u64 {
    let bits = rng.gen_range(1u32..41);
    let word = rng.next_u64() >> (64 - bits);
    let offset = if rng.gen_bool(0.2) {
        rng.gen_range(1u64..4)
    } else {
        0
    };
    word * 4 + offset
}

/// `addr` in hex, in a random case, with a random prefix where allowed.
fn hex(rng: &mut SplitMix64, addr: u64, prefixed: bool) -> String {
    let digits = if rng.gen_bool(0.3) {
        format!("{addr:X}")
    } else {
        format!("{addr:x}")
    };
    let prefix = if prefixed {
        pick(rng, &["", "", "0x", "0X"])
    } else {
        ""
    };
    format!("{prefix}{digits}")
}

fn gen_line(rng: &mut SplitMix64, format: TraceFormat) -> String {
    let mut line = match rng.gen_range(0u32..20) {
        0 => pick(rng, &["# a comment", "#", "  # indented"]).to_string(),
        1 => pick(rng, &["", "  ", "\t"]).to_string(),
        2 if format == TraceFormat::Lackey => {
            pick(rng, &["==4242== Lackey", "--4242-- chatter", "=="]).to_string()
        }
        _ => {
            let sep = pick(rng, &[" ", " ", " ", "  ", "\t"]);
            let addr = byte_addr(rng);
            match format {
                TraceFormat::Din | TraceFormat::ChampSim => {
                    let op = if format == TraceFormat::Din {
                        pick(rng, &["0", "1", "2"])
                    } else {
                        pick(rng, &["I", "F", "L", "R", "S", "W", "i", "l", "s", "w"])
                    };
                    let pid = match rng.gen_range(0u32..4) {
                        0 => format!("{sep}{}", rng.gen_range(0u64..65_536)),
                        1 => format!("{sep}{}", rng.gen_range(0u64..4)),
                        _ => String::new(),
                    };
                    format!("{op}{sep}{}{pid}", hex(rng, addr, true))
                }
                TraceFormat::Lackey => {
                    let op = pick(rng, &["I", "L", "S", "M"]);
                    let lead = if op == "I" { "" } else { " " };
                    let size = rng.gen_range(1u64..17);
                    format!("{lead}{op}{sep}{:08x},{size}", addr)
                }
            }
        }
    };
    if rng.gen_bool(0.1) {
        line.push(' ');
    }
    line.push_str(if rng.gen_bool(0.25) { "\r\n" } else { "\n" });
    line
}

fn gen_upload(rng: &mut SplitMix64) -> Upload {
    let format =
        [TraceFormat::Din, TraceFormat::ChampSim, TraceFormat::Lackey][rng.gen_range(0usize..3)];
    let n = rng.gen_range(1usize..3_000);
    let lines: Vec<String> = (0..n).map(|_| gen_line(rng, format)).collect();
    Upload {
        format,
        lines,
        final_newline: rng.gen_bool(0.7),
        warm: rng.gen_range(0usize..3_500),
        window: rng.gen_bool(0.5).then(|| rng.gen_range(1usize..700)),
        picks: rng.gen_range(1usize..12),
    }
}

fn shrink_upload(u: &Upload) -> Vec<Upload> {
    shrink::vec_linear(&u.lines)
        .into_iter()
        .map(|lines| Upload { lines, ..u.clone() })
        .collect()
}

/// One line as text: its references and whether its address lost
/// sub-word bits.
fn reference_line(line: &str, format: TraceFormat) -> Vec<(MemRef, bool)> {
    let line = line.trim();
    let banner =
        format == TraceFormat::Lackey && (line.starts_with("==") || line.starts_with("--"));
    if line.is_empty() || line.starts_with('#') || banner {
        return Vec::new();
    }
    let mut fields = line.split_whitespace();
    let op = fields.next().expect("a field");
    let addr = fields.next().expect("an address");
    let (addr, pid) = match format {
        TraceFormat::Lackey => (addr.split(',').next().expect("an address"), 0),
        _ => (addr, fields.next().map_or(0, |p| p.parse().expect("a pid"))),
    };
    assert!(fields.next().is_none(), "no trailing field in {line:?}");
    let digits = addr.trim_start_matches("0x").trim_start_matches("0X");
    let byte_addr = u64::from_str_radix(digits, 16).expect("hex");
    let word = WordAddr::new(byte_addr / 4);
    let kind = match op.to_ascii_uppercase().as_str() {
        "0" | "L" | "R" | "M" => AccessKind::Load,
        "1" | "S" | "W" => AccessKind::Store,
        "2" | "I" | "F" => AccessKind::IFetch,
        other => panic!("no op {other:?}"),
    };
    let truncated = byte_addr % 4 != 0;
    let mut refs = vec![(MemRef::new(word, kind, Pid(pid)), truncated)];
    if op == "M" {
        refs.push((MemRef::store(word, Pid(0)), truncated));
    }
    refs
}

/// The profile counted reference by reference: three direct-mapped tag
/// arrays of 256, 2048 and 16384 sets of 4-word blocks, tagged by block
/// and pid.
fn reference_profile(refs: &[MemRef], window: usize) -> IntervalProfile {
    let sets = [256u64, 2048, 16384];
    let mut tags: Vec<Vec<Option<u64>>> = sets.iter().map(|&s| vec![None; s as usize]).collect();
    let mut windows = Vec::new();
    for (w, chunk) in refs.chunks(window).enumerate() {
        let mut misses = [0u64; 3];
        let (mut ifetches, mut stores) = (0u64, 0u64);
        for r in chunk {
            let block = r.addr.value() / 4;
            let tag = block * 65_536 + u64::from(r.pid.0);
            for (i, &s) in sets.iter().enumerate() {
                let slot = &mut tags[i][(block % s) as usize];
                if *slot != Some(tag) {
                    misses[i] += 1;
                    *slot = Some(tag);
                }
            }
            match r.kind {
                AccessKind::IFetch => ifetches += 1,
                AccessKind::Store => stores += 1,
                AccessKind::Load => {}
            }
        }
        let n = chunk.len() as f64;
        windows.push(WindowFeatures {
            start_ref: w * window,
            len: chunk.len(),
            probe_miss: misses.map(|m| m as f64 / n),
            ifetch_frac: ifetches as f64 / n,
            store_frac: stores as f64 / n,
        });
    }
    IntervalProfile {
        window_refs: window,
        total_refs: refs.len(),
        windows,
    }
}

#[test]
fn ingest_and_selection_match_the_reference_composition() {
    check(
        "ingest_reference_composition",
        gen_upload,
        shrink_upload,
        |u: &Upload| {
            let body = u.body();
            let text = std::str::from_utf8(&body).expect("ASCII");
            let parsed: Vec<(MemRef, bool)> = text
                .lines()
                .flat_map(|line| reference_line(line, u.format))
                .collect();
            let refs: Vec<MemRef> = parsed.iter().map(|&(r, _)| r).collect();
            let truncated = parsed.iter().filter(|&&(_, t)| t).count() as u64;

            let got = upload::ingest(&body, Some(u.format), "up", u.warm);
            if refs.is_empty() {
                prop_assert_eq!(got.is_err(), true, "an upload of no references is refused");
                return Ok(());
            }
            let (trace, digest, format, got_truncated) = got?;
            prop_assert_eq!(format, u.format);
            prop_assert_eq!(trace.refs(), &refs[..], "refs");
            prop_assert_eq!(got_truncated, truncated, "truncated refs");
            let warm = u.warm.min(refs.len());
            let want = Trace::new("up", refs.clone(), warm);
            prop_assert_eq!(digest, keyed::upload_digest(&want), "digest");

            let (profile, selection) = upload::select_intervals(&trace, u.window, u.picks);
            let window = u.window.unwrap_or((refs.len() / 40).max(1024));
            let want_profile = reference_profile(&refs, window);
            prop_assert_eq!(profile.window_refs, want_profile.window_refs);
            prop_assert_eq!(profile.total_refs, want_profile.total_refs);
            prop_assert_eq!(&profile.windows, &want_profile.windows, "window features");
            let want_selection = Selection::pick(&want_profile, u.picks, SELECTION_SEED);
            prop_assert_eq!(&selection.picks, &want_selection.picks, "picks and weights");
            prop_assert_eq!(
                selection.profile_error.to_bits(),
                want_selection.profile_error.to_bits(),
                "profile error"
            );
            Ok(())
        },
    );
}
