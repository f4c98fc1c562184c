//! `import::parse_all` reserves memory only for references it has
//! parsed, whatever the size of the body.
//!
//! Upload bodies may be tens of MiB. A vector sized from the body (one
//! slot per line, or per `M` byte) would let a body of blank lines or
//! comments reserve 16 bytes per body byte while yielding nothing, and an
//! error that quoted a multi-megabyte token whole would cost twice the
//! token. This binary counts the largest single allocation made during
//! each parse with a counting global allocator; it holds one test, so no
//! other test allocates while it measures.

use cachetime_trace::import::{self, TraceFormat};
use cachetime_types::{MemRef, Pid, WordAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest block asked for.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// Body size of the filler cases: large enough that a reservation of a
/// slot per line or per `M` byte would be tens of MiB.
const BODY: usize = 8 << 20;

/// A body of `line` repeated to about [`BODY`] bytes.
fn filler(line: &[u8]) -> Vec<u8> {
    line.repeat(BODY / line.len())
}

/// Parses `text` and returns the references it yielded (0 on an error)
/// and the largest allocation made meanwhile.
fn parse(text: &[u8], format: TraceFormat) -> (usize, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let refs = import::parse_all(text, format, |_| {}).map_or(0, |(refs, _)| refs.len());
    (refs, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_parse_reserves_only_for_the_references_it_yields() {
    let comment_of_ms = [b"#".as_slice(), &[b'M'; 62], b"\n"].concat();
    let mut bodies: Vec<(&str, TraceFormat, Vec<u8>)> = Vec::new();
    for format in [TraceFormat::Din, TraceFormat::ChampSim, TraceFormat::Lackey] {
        bodies.push(("newlines", format, filler(b"\n")));
        bodies.push(("comments full of M", format, filler(&comment_of_ms)));
        // A thousand real references, then a body's worth of blank lines.
        let refs: Vec<MemRef> = (0..1_000u64)
            .map(|i| MemRef::load(WordAddr::new(i * 13), Pid(0)))
            .collect();
        let mut text = Vec::new();
        import::write_format(&mut text, &refs, format).unwrap();
        text.extend_from_slice(&filler(b"\n"));
        bodies.push(("1,000 refs then newlines", format, text));
    }
    // One huge token each, refused: the error quotes a clipped prefix.
    let line = |head: &[u8], token: u8| [head, &vec![token; BODY], b"\n"].concat();
    bodies.push(("a line of M", TraceFormat::Lackey, line(b"", b'M')));
    bodies.push(("a huge hex token", TraceFormat::Din, line(b"0 ", b'f')));
    bodies.push(("a huge opcode", TraceFormat::ChampSim, line(b"", b'Q')));
    bodies.push((
        "banners full of M",
        TraceFormat::Lackey,
        filler(b"==17== MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM\n"),
    ));

    for (what, format, text) in &bodies {
        let (refs, largest) = parse(text, *format);
        // A vector grown by doubling holds under twice what it has
        // parsed; a body that yields nothing allocates next to nothing.
        let bound = 2 * refs * std::mem::size_of::<MemRef>() + 4096;
        assert!(
            largest <= bound,
            "{format:?} {what}: {refs} refs, largest allocation {largest} B > {bound} B"
        );
    }
}
