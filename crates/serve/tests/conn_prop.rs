//! Property tests for the per-connection state machine the event loop
//! drives ([`cachetime_serve::conn`]).
//!
//! The transport here is a scripted fake socket: reads deliver the byte
//! stream of real pipelined requests chopped at arbitrary points, with
//! `WouldBlock` yields (spurious wakeups), mid-request EOFs, and hard
//! errors spliced in; writes accept a few bytes at a time, yield, or fail.
//! Whatever the script does, the machine must
//!
//! * never panic,
//! * never double-answer (at most one response per parsed request, bytes
//!   written in order, uncorrupted),
//! * and either complete cleanly or end `Closed` — no livelock, no limbo
//!   state.
//!
//! On the hermetic testkit runner (`TESTKIT_SEED=… cargo test` reproduces
//! any failure).

use cachetime_serve::conn::{Connection, ReadEvent, WriteEvent, READ_CHUNK};
use cachetime_testkit::{check, prop_assert, prop_assert_eq, shrink, SplitMix64};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Instant;

// ---------------------------------------------------------------- fake I/O

#[derive(Debug, Clone)]
enum ReadStep {
    /// Deliver these bytes (possibly across several `read` calls).
    Chunk(Vec<u8>),
    /// One `WouldBlock` — the spurious-wakeup / slow-sender case.
    Yield,
    /// EOF from here on.
    Eof,
    /// A hard transport error.
    Broken,
}

#[derive(Debug, Clone)]
enum WriteStep {
    /// Accept at most this many bytes (≥ 1).
    Accept(usize),
    /// One `WouldBlock` — backpressure.
    Yield,
    /// A hard transport error.
    Broken,
}

#[derive(Debug)]
struct FakeSock {
    reads: VecDeque<ReadStep>,
    writes: VecDeque<WriteStep>,
    written: Vec<u8>,
}

impl FakeSock {
    fn new(reads: Vec<ReadStep>, writes: Vec<WriteStep>) -> Self {
        FakeSock {
            reads: reads.into(),
            writes: writes.into(),
            written: Vec::new(),
        }
    }

    /// Whether the read script can still produce bytes (idle `WouldBlock`
    /// after exhaustion does not count — that's a parked keep-alive peer).
    fn reads_pending(&self) -> bool {
        self.reads
            .iter()
            .any(|s| matches!(s, ReadStep::Chunk(_) | ReadStep::Eof | ReadStep::Broken))
    }
}

impl Read for FakeSock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.reads.front_mut() {
            // Script exhausted: the peer is idle, not gone.
            None => Err(io::ErrorKind::WouldBlock.into()),
            Some(ReadStep::Chunk(data)) => {
                let n = buf.len().min(data.len());
                buf[..n].copy_from_slice(&data[..n]);
                data.drain(..n);
                if data.is_empty() {
                    self.reads.pop_front();
                }
                Ok(n)
            }
            Some(ReadStep::Yield) => {
                self.reads.pop_front();
                Err(io::ErrorKind::WouldBlock.into())
            }
            Some(ReadStep::Eof) => Ok(0),
            Some(ReadStep::Broken) => Err(io::ErrorKind::ConnectionReset.into()),
        }
    }
}

impl Write for FakeSock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.writes.pop_front() {
            // Script exhausted: unlimited capacity from here on.
            None => {
                self.written.extend_from_slice(buf);
                Ok(buf.len())
            }
            Some(WriteStep::Accept(cap)) => {
                let n = buf.len().min(cap.max(1));
                self.written.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            Some(WriteStep::Yield) => Err(io::ErrorKind::WouldBlock.into()),
            Some(WriteStep::Broken) => Err(io::ErrorKind::BrokenPipe.into()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ------------------------------------------------------------------- plans

/// One request the plan will send, plus how the driver answers it.
#[derive(Debug, Clone)]
struct ReqSpec {
    path: String,
    body: Vec<u8>,
    /// Send `X-Deadline-Ms: 0`, making the request dead on arrival.
    doa: bool,
    /// `Connection: close` — the response closes the connection.
    close: bool,
    /// Send the body `Transfer-Encoding: chunked`, in chunks of these
    /// sizes (they sum to its length), instead of `Content-Length`.
    chunks: Option<Vec<usize>>,
}

impl ReqSpec {
    fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!("POST {} HTTP/1.1\r\n", self.path);
        match self.chunks {
            Some(_) => head.push_str("Transfer-Encoding: chunked\r\n"),
            None => head.push_str(&format!("Content-Length: {}\r\n", self.body.len())),
        }
        if self.doa {
            head.push_str("X-Deadline-Ms: 0\r\n");
        }
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        let Some(chunks) = &self.chunks else {
            out.extend_from_slice(&self.body);
            return out;
        };
        let mut rest = &self.body[..];
        for &len in chunks {
            let (chunk, tail) = rest.split_at(len);
            out.extend_from_slice(format!("{len:x}\r\n").as_bytes());
            out.extend_from_slice(chunk);
            out.extend_from_slice(b"\r\n");
            rest = tail;
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }
}

/// Cuts `len` bytes into random nonempty chunk sizes.
fn gen_chunks(rng: &mut SplitMix64, len: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut left = len;
    while left > 0 {
        let take = rng.gen_range(1usize..24).min(left);
        chunks.push(take);
        left -= take;
    }
    chunks
}

/// A full scenario: requests, how their byte stream is chopped and
/// terminated, and how the write side behaves.
#[derive(Debug, Clone)]
struct Plan {
    specs: Vec<ReqSpec>,
    reads: Vec<ReadStep>,
    writes: Vec<WriteStep>,
    /// True when the script delivers every byte, never errors, and the
    /// write side never breaks — completion must then be total.
    clean: bool,
}

fn gen_plan(rng: &mut SplitMix64) -> Plan {
    let clean = rng.gen_bool(0.4);
    let n_reqs = rng.gen_range(1usize..5);
    let specs: Vec<ReqSpec> = (0..n_reqs)
        .map(|i| {
            let body_len = rng.gen_range(0usize..80);
            let mut body = vec![0u8; body_len];
            for b in &mut body {
                *b = rng.gen_range(0x20u64..0x7f) as u8;
            }
            let chunks = rng.gen_bool(0.3).then(|| gen_chunks(rng, body_len));
            ReqSpec {
                path: format!("/req/{i}"),
                body,
                doa: !clean && rng.gen_bool(0.15),
                close: if clean { false } else { rng.gen_bool(0.2) },
                chunks,
            }
        })
        .collect();

    // Flatten every request into one stream, then chop it.
    let stream: Vec<u8> = specs.iter().flat_map(|s| s.to_bytes()).collect();
    let mut reads = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        if rng.gen_bool(0.3) {
            reads.push(ReadStep::Yield);
        }
        let take = rng.gen_range(1usize..64).min(stream.len() - pos);
        reads.push(ReadStep::Chunk(stream[pos..pos + take].to_vec()));
        pos += take;
    }
    if !clean {
        // Truncate at a random step and/or end with EOF or an error —
        // mid-request cuts included.
        if rng.gen_bool(0.5) {
            let cut = rng.gen_range(0u64..(reads.len() as u64 + 1)) as usize;
            reads.truncate(cut);
        }
        match rng.gen_range(0u32..3) {
            0 => reads.push(ReadStep::Eof),
            1 => reads.push(ReadStep::Broken),
            _ => {}
        }
    }

    let n_writes = rng.gen_range(0usize..24);
    let writes: Vec<WriteStep> = (0..n_writes)
        .map(|_| match rng.gen_range(0u32..8) {
            0 if !clean => WriteStep::Broken,
            1 | 2 => WriteStep::Yield,
            _ => WriteStep::Accept(rng.gen_range(1usize..9)),
        })
        .collect();

    Plan {
        specs,
        reads,
        writes,
        clean,
    }
}

// ------------------------------------------------------------------ driver

/// How far `drive` got.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Connection closed (disconnect, error, or `Connection: close`).
    Closed,
    /// Script exhausted with the connection parked in a live state.
    Parked,
}

/// What [`drive`] saw: the outcome, each parsed request's path and body,
/// and every queued response.
type Driven = (Outcome, Vec<(String, Vec<u8>)>, Vec<Vec<u8>>);

/// A tiny deterministic event loop: pumps the machine like `http.rs` does,
/// answering every parsed request immediately. Also pokes the machine with
/// out-of-state calls each iteration — spurious readiness events must be
/// inert. Returns the outcome plus everything that was parsed and queued.
fn drive(conn: &mut Connection<FakeSock>, expected: &[ReqSpec]) -> Result<Driven, String> {
    let mut seen: Vec<(String, Vec<u8>)> = Vec::new();
    let mut queued: Vec<Vec<u8>> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    for _step in 0..100_000 {
        if conn.is_closed() {
            return Ok((Outcome::Closed, seen, queued));
        }
        if conn.is_writing() {
            // Spurious read-readiness while writing must be a no-op.
            if !matches!(conn.on_readable(&mut scratch), ReadEvent::NotReading) {
                return Err("on_readable while Writing must be NotReading".into());
            }
            match conn.on_writable(Instant::now()) {
                WriteEvent::Flushed { .. } => {}
                WriteEvent::NeedWritable => {} // script advances per call
                WriteEvent::Delayed(_) => {
                    return Err("no response was delayed in this suite".into())
                }
                WriteEvent::Disconnected => return Ok((Outcome::Closed, seen, queued)),
                WriteEvent::NotWriting => return Err("is_writing lied".into()),
            }
            continue;
        }
        // Reading. Spurious write-readiness must be a no-op.
        if !matches!(conn.on_writable(Instant::now()), WriteEvent::NotWriting) {
            return Err("on_writable while Reading must be NotWriting".into());
        }
        match conn.on_readable(&mut scratch) {
            ReadEvent::Request(req) => {
                // Exercise the Dispatched parking state the real loop uses
                // while a handler owns the request.
                if !conn.is_dispatched() {
                    return Err("a parsed request must leave the machine Dispatched".into());
                }
                if !matches!(conn.on_readable(&mut scratch), ReadEvent::NotReading) {
                    return Err("on_readable while Dispatched must be NotReading".into());
                }
                seen.push((req.path.clone(), req.body.clone()));
                let resp = format!("RESP {} to {}\r\n", seen.len(), req.path).into_bytes();
                conn.begin_response(resp.clone(), req.keep_alive, None);
                queued.push(resp);
            }
            ReadEvent::NeedMore => {
                if !conn.transport().reads_pending() {
                    return Ok((Outcome::Parked, seen, queued));
                }
            }
            ReadEvent::Bad(e) => {
                // Plans only send well-formed requests, so the parser may
                // only reject what a mid-request cut left behind — and
                // this suite's driver closes without answering.
                let _ = e;
                conn.close();
            }
            ReadEvent::Doa => {
                let resp = b"RESP 408\r\n".to_vec();
                conn.begin_response(resp.clone(), false, None);
                queued.push(resp);
            }
            ReadEvent::Disconnected => return Ok((Outcome::Closed, seen, queued)),
            ReadEvent::NotReading => return Err("is_reading lied".into()),
        }
    }
    Err(format!(
        "no progress after 100k steps: {} specs, {} seen",
        expected.len(),
        seen.len()
    ))
}

// -------------------------------------------------------------- properties

#[test]
fn scripted_partial_io_never_panics_never_double_answers() {
    check("conn_partial_io", gen_plan, shrink::none, |plan: &Plan| {
        let sock = FakeSock::new(plan.reads.clone(), plan.writes.clone());
        let mut conn = Connection::new(sock);
        let driven = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(&mut conn, &plan.specs)
        }))
        .map_err(|_| "state machine panicked".to_string())?;
        let (outcome, seen, queued) = driven?;

        // Requests parse in order, byte-exact: what was seen is a
        // prefix of what was sent (cuts lose the tail, never reorder).
        prop_assert!(seen.len() <= plan.specs.len(), "more requests than sent");
        for (got, want) in seen.iter().zip(&plan.specs) {
            prop_assert_eq!(&got.0, &want.path);
            prop_assert_eq!(&got.1, &want.body);
        }

        // Never double-answer, never corrupt: the bytes on the wire
        // are exactly the queued responses in order, cut off at most
        // once mid-response (write error / close).
        let full: Vec<u8> = queued.iter().flatten().copied().collect();
        let written = &conn.transport().written;
        prop_assert!(
            written.len() <= full.len() && written[..] == full[..written.len()],
            "wire bytes must be a prefix of the queued responses"
        );

        // A clean plan (all bytes delivered, nothing broken, all
        // keep-alive) must complete totally: every request answered,
        // every response byte flushed, machine parked idle.
        if plan.clean {
            prop_assert_eq!(outcome, Outcome::Parked, "clean plans end parked");
            prop_assert_eq!(
                seen.len(),
                plan.specs.len(),
                "clean plans see every request"
            );
            prop_assert_eq!(written.len(), full.len(), "clean plans flush every byte");
            prop_assert!(conn.is_reading(), "clean plans park in Reading");
            prop_assert!(conn.started().is_none(), "no partial request may linger");
        }
        Ok(())
    });
}

#[test]
fn a_doa_request_is_answered_408_and_closed() {
    let spec = ReqSpec {
        path: "/late".into(),
        body: b"xx".to_vec(),
        doa: true,
        close: false,
        chunks: None,
    };
    let sock = FakeSock::new(vec![ReadStep::Chunk(spec.to_bytes())], Vec::new());
    let mut conn = Connection::new(sock);
    let (outcome, seen, queued) = drive(&mut conn, &[spec]).unwrap();
    assert_eq!(outcome, Outcome::Closed);
    assert!(seen.is_empty(), "a DOA request must not be dispatched");
    assert_eq!(queued, vec![b"RESP 408\r\n".to_vec()]);
    assert_eq!(conn.transport().written, b"RESP 408\r\n");
}

#[test]
fn begin_response_while_writing_is_a_loud_bug() {
    let sock = FakeSock::new(Vec::new(), vec![WriteStep::Yield]);
    let mut conn = Connection::new(sock);
    conn.begin_response(b"first".to_vec(), true, None);
    assert!(matches!(
        conn.on_writable(Instant::now()),
        WriteEvent::NeedWritable
    ));
    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        conn.begin_response(b"second".to_vec(), true, None);
    }));
    assert!(
        second.is_err(),
        "double answer must panic at the source, not corrupt the wire"
    );
}

/// A transport that always has data: every `read` fills the whole buffer
/// from the stream, then from endless filler, and counts itself.
struct Firehose {
    stream: Vec<u8>,
    pos: usize,
    reads: usize,
}

impl Read for Firehose {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        for b in buf.iter_mut() {
            *b = self.stream.get(self.pos).copied().unwrap_or(b'x');
            self.pos += 1;
        }
        Ok(buf.len())
    }
}

impl Write for Firehose {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_mebibyte_chunked_body_frames_in_seventeen_reads() {
    let body: Vec<u8> = (0..1usize << 20).map(|i| b"0 1a2b3c\n"[i % 9]).collect();
    let spec = ReqSpec {
        path: "/v1/traces".into(),
        body: body.clone(),
        doa: false,
        close: false,
        chunks: Some(vec![256 << 10; 4]),
    };
    let mut conn = Connection::new(Firehose {
        stream: spec.to_bytes(),
        pos: 0,
        reads: 0,
    });
    let mut scratch = vec![0u8; READ_CHUNK];
    match conn.on_readable(&mut scratch) {
        ReadEvent::Request(req) => assert!(req.body == body, "the body frames intact"),
        other => panic!("expected the upload, got {other:?}"),
    }
    let reads = conn.transport().reads;
    assert!(reads <= 17, "{reads} reads for a 1 MiB body");
}
