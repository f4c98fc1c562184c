//! Property tests for the HTTP head parser — the one piece of the server
//! that runs on fully untrusted bytes. On the hermetic testkit runner
//! (`TESTKIT_SEED=… cargo test` reproduces any failure).

use cachetime_serve::http::{parse_request, Parsed, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use cachetime_testkit::{check, prop_assert, prop_assert_eq, shrink, SplitMix64};

/// Runs the parser under `catch_unwind` so a panic shrinks like any other
/// failure instead of aborting the run on the first giant input.
fn parse_caught(buf: &mut Vec<u8>) -> Result<Result<Parsed, u16>, String> {
    let mut moved = std::mem::take(buf);
    std::panic::catch_unwind(move || {
        let r = parse_request(&mut moved);
        (moved, r)
    })
    .map(|(rest, r)| {
        *buf = rest;
        r.map_err(|e| e.status)
    })
    .map_err(|_| "parser panicked".to_string())
}

/// Arbitrary bytes — mostly raw garbage, sometimes ASCII-ish with CRLFs
/// sprinkled in so head framing is actually reached.
fn gen_garbage(rng: &mut SplitMix64) -> Vec<u8> {
    let len = rng.gen_range(0usize..2048);
    let mut bytes = vec![0u8; len];
    if rng.gen_bool(0.5) {
        rng.fill(&mut bytes);
    } else {
        for b in &mut bytes {
            *b = match rng.gen_range(0u32..8) {
                0 => b'\r',
                1 => b'\n',
                2 => b' ',
                3 => b':',
                _ => rng.gen_range(0x20u64..0x7f) as u8,
            };
        }
    }
    bytes
}

#[test]
fn garbage_never_panics_and_errors_carry_real_statuses() {
    check(
        "garbage_never_panics",
        gen_garbage,
        shrink::vec_linear,
        |input| {
            let mut buf = input.clone();
            match parse_caught(&mut buf)? {
                Ok(Parsed::Incomplete) => {
                    // The parser may only wait for more bytes while the
                    // head cap has not been blown.
                    prop_assert!(input.len() <= MAX_HEAD_BYTES || has_head_end(input));
                }
                Ok(Parsed::Request(_)) => {} // garbage that happens to parse is fine
                Ok(Parsed::Chunked { .. }) => {} // ...as is a chunked head
                Err(status) => {
                    prop_assert!(
                        status == 400 || status == 413 || status == 431,
                        "unexpected status {}",
                        status
                    );
                }
            }
            Ok(())
        },
    );
}

fn has_head_end(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n")
}

/// A structurally valid request with randomized method, path, body,
/// keep-alive, and optional deadline header.
#[derive(Debug, Clone)]
struct ValidReq {
    method: &'static str,
    path: String,
    body: Vec<u8>,
    close: bool,
    deadline_ms: Option<u64>,
}

fn gen_valid(rng: &mut SplitMix64) -> ValidReq {
    let method = ["GET", "POST", "PUT", "HEAD"][rng.gen_range(0usize..4)];
    let depth = rng.gen_range(1usize..4);
    let mut path = String::new();
    for _ in 0..depth {
        path.push('/');
        for _ in 0..rng.gen_range(1usize..8) {
            path.push(rng.gen_range(b'a' as u64..b'z' as u64 + 1) as u8 as char);
        }
    }
    let mut body = vec![0u8; rng.gen_range(0usize..512)];
    rng.fill(&mut body);
    ValidReq {
        method,
        path,
        body,
        close: rng.gen_bool(0.3),
        deadline_ms: if rng.gen_bool(0.3) {
            Some(rng.gen_range(1u64..60_000))
        } else {
            None
        },
    }
}

fn serialize(r: &ValidReq) -> Vec<u8> {
    let mut head = format!(
        "{} {} HTTP/1.1\r\nHost: prop\r\nContent-Length: {}\r\n",
        r.method,
        r.path,
        r.body.len()
    );
    if let Some(ms) = r.deadline_ms {
        head.push_str(&format!("X-Deadline-Ms: {ms}\r\n"));
    }
    if r.close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&r.body);
    bytes
}

#[test]
fn valid_requests_round_trip_and_prefixes_never_error() {
    check(
        "valid_requests_round_trip",
        |rng| (gen_valid(rng), rng.next_u64()),
        shrink::none,
        |(req, cut_salt)| {
            let wire = serialize(req);
            // Every strict prefix is Incomplete — a slow sender is never
            // misread as malformed, no matter where the bytes pause.
            let cut = (*cut_salt as usize) % wire.len();
            let mut partial = wire[..cut].to_vec();
            match parse_caught(&mut partial)? {
                Ok(Parsed::Incomplete) => {}
                Ok(Parsed::Request(_)) => return Err("prefix parsed as a complete request".into()),
                Ok(Parsed::Chunked { .. }) => {
                    return Err("Content-Length prefix parsed as chunked".into())
                }
                Err(s) => return Err(format!("prefix rejected with {s}")),
            }
            // The full bytes parse back to exactly what was serialized.
            let mut buf = wire.clone();
            match parse_caught(&mut buf)? {
                Ok(Parsed::Request(parsed)) => {
                    prop_assert_eq!(parsed.method.as_str(), req.method);
                    prop_assert_eq!(&parsed.path, &req.path);
                    prop_assert_eq!(&parsed.body, &req.body);
                    prop_assert_eq!(parsed.keep_alive, !req.close);
                    prop_assert_eq!(parsed.deadline_ms, req.deadline_ms);
                    prop_assert!(buf.is_empty(), "request bytes not fully drained");
                }
                other => return Err(format!("full request did not parse: {other:?}")),
            }
            Ok(())
        },
    );
}

#[test]
fn size_limits_map_to_their_statuses() {
    check(
        "size_limits_map_to_statuses",
        |rng| {
            (
                rng.gen_range(MAX_BODY_BYTES as u64 + 1..u64::MAX / 2),
                rng.gen_range(MAX_HEAD_BYTES as u64 + 1..MAX_HEAD_BYTES as u64 * 4),
            )
        },
        shrink::none,
        |&(claim, head_len)| {
            // Oversized Content-Length: 413 at head-parse time, before any
            // body byte exists.
            let mut buf =
                format!("POST /x HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n").into_bytes();
            match parse_caught(&mut buf)? {
                Err(413) => {}
                other => return Err(format!("oversized claim: {other:?}")),
            }
            // A head that never terminates: 431 once past the cap.
            let mut buf = vec![b'x'; head_len as usize];
            match parse_caught(&mut buf)? {
                Err(431) => {}
                other => return Err(format!("runaway head: {other:?}")),
            }
            Ok(())
        },
    );
}

#[test]
fn duplicate_content_length_is_always_400() {
    // Request-smuggling guard (RFC 9112 §6.3): a head carrying more than
    // one Content-Length is rejected outright — even when the copies
    // agree — never resolved by picking one of the values.
    check(
        "duplicate_content_length_is_400",
        |rng| {
            let req = gen_valid(rng);
            // Second claim: sometimes agreeing, sometimes conflicting,
            // with randomized header-name casing.
            let second = if rng.gen_bool(0.5) {
                req.body.len() as u64
            } else {
                rng.gen_range(0u64..MAX_BODY_BYTES as u64)
            };
            let name =
                ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.gen_range(0usize..3)];
            (req, second, name)
        },
        shrink::none,
        |(req, second, name)| {
            let wire = serialize(req);
            // Splice the duplicate header in just before the blank line.
            let head_end = wire
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .ok_or("serialized request has no head terminator")?;
            let mut buf = wire[..head_end + 2].to_vec();
            buf.extend_from_slice(format!("{name}: {second}\r\n\r\n").as_bytes());
            buf.extend_from_slice(&req.body);
            match parse_caught(&mut buf)? {
                Err(400) => Ok(()),
                other => Err(format!("duplicate Content-Length parsed: {other:?}")),
            }
        },
    );
}

#[test]
fn chunked_uploads_round_trip_under_any_chunking_and_read_slicing() {
    // Two independent randomizations: how the sender splits the body into
    // chunks, and how the "socket" slices the wire into reads. The
    // dechunked body must be bit-identical to the original either way.
    check(
        "chunked_uploads_round_trip",
        |rng| {
            let mut body = vec![0u8; rng.gen_range(0usize..2048)];
            rng.fill(&mut body);
            let mut splits = Vec::new();
            let mut at = 0;
            while at < body.len() {
                let take = rng.gen_range(1usize..512).min(body.len() - at);
                splits.push(take);
                at += take;
            }
            (body, splits, rng.gen_range(1usize..97))
        },
        shrink::none,
        |(body, splits, read_size)| {
            let mut wire =
                b"POST /v1/traces HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            let mut at = 0;
            for take in splits {
                wire.extend_from_slice(format!("{take:x}\r\n").as_bytes());
                wire.extend_from_slice(&body[at..at + take]);
                wire.extend_from_slice(b"\r\n");
                at += take;
            }
            wire.extend_from_slice(b"0\r\n\r\n");
            let mut buf = Vec::new();
            let mut pending = None;
            let mut result = None;
            for piece in wire.chunks(*read_size) {
                buf.extend_from_slice(piece);
                if pending.is_none() {
                    match parse_caught(&mut buf)? {
                        Ok(Parsed::Incomplete) => continue,
                        Ok(Parsed::Chunked { decoder, .. }) => pending = Some(decoder),
                        other => return Err(format!("head did not frame chunked: {other:?}")),
                    }
                }
                if let Some(decoder) = pending.as_mut() {
                    if decoder
                        .feed(&mut buf)
                        .map_err(|e| format!("feed: {}", e.msg))?
                    {
                        result = Some(pending.take().ok_or("decoder vanished")?.into_body());
                    }
                }
            }
            let got = result.ok_or("upload never completed")?;
            prop_assert_eq!(&got, body);
            prop_assert!(buf.is_empty(), "terminator bytes not drained");
            Ok(())
        },
    );
}

#[test]
fn pipelined_requests_parse_in_order() {
    check(
        "pipelined_requests_parse_in_order",
        |rng| {
            let n = rng.gen_range(1usize..6);
            (0..n).map(|_| gen_valid(rng)).collect::<Vec<_>>()
        },
        shrink::vec_linear,
        |reqs| {
            let mut wire = Vec::new();
            for r in reqs {
                wire.extend_from_slice(&serialize(r));
            }
            for (i, expect) in reqs.iter().enumerate() {
                match parse_caught(&mut wire)? {
                    Ok(Parsed::Request(parsed)) => {
                        prop_assert_eq!(&parsed.path, &expect.path, "request {}", i);
                        prop_assert_eq!(&parsed.body, &expect.body, "request {}", i);
                    }
                    other => return Err(format!("request {i} did not parse: {other:?}")),
                }
            }
            prop_assert!(wire.is_empty());
            Ok(())
        },
    );
}
