//! `ingest`: the only workload that touches dechunking, the importers,
//! the interval selector and the upload store. One client uploads trace
//! bodies of 25k–250k references and one of 1M as chunked
//! `POST /v1/traces`, rotating din, ChampSim and lackey text; each upload
//! names a distinct warm-up boundary, so its content digest is always
//! fresh. Each upload is followed by a simulate by digest (a cold
//! recording) and a 16-point replay. The latency and rate metrics time the
//! uploads alone. Streamed parsing should move `peak_rss_mb` here: the
//! client keeps only the bodies' text, not their references.

use super::serve::{loopback, post, stats_layers, Server};
use super::{
    common_layers, generate, sampled, set_up, timed_phases, Digest, Outcome, Pass, Phase, Rounds,
    RunOptions, Summary, CYCLE_TIMES_NS, SIZES_KIB,
};
use crate::host::{Coupling, HostClock};
use crate::spans::{span, Collector, Tree};
use cachetime::{keyed::UploadDigest, simulate, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_serve::api::{key_hex, sim_result_to_json};
use cachetime_serve::http::{limits_for, parse_request, Parsed};
use cachetime_serve::upload::{self, UploadStore};
use cachetime_serve::App;
use cachetime_testkit::{derive_seed, SplitMix64};
use cachetime_trace::import::{write_format, ImportIter, TraceFormat};
use cachetime_trace::{catalog, Trace};
use cachetime_types::{CacheSize, Json, MemRef, Pid};
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Reference count of each body; a pass uploads each once.
    pub sizes: Vec<usize>,
    /// Catalog traces the bodies are generated from, in rotation.
    pub traces: Vec<&'static str>,
    /// Chunk size of the chunked upload.
    pub chunk_bytes: usize,
    /// Byte budget of the server's upload store.
    pub upload_budget_bytes: usize,
    /// Byte budget of the server's memory store.
    pub store_budget_bytes: usize,
}

impl Params {
    /// The benchmark's size: per pass, six bodies of 25k–100k references,
    /// one of 250k and one of 1M, the large upload streamed parsing is
    /// for. Small enough that a run uploads each body a few dozen times,
    /// so each has a steady median upload time.
    pub fn full() -> Params {
        Params {
            sizes: vec![
                25_000, 37_500, 50_000, 62_500, 75_000, 100_000, 250_000, 1_000_000,
            ],
            traces: vec!["mu3", "savec", "mu10", "mu6"],
            chunk_bytes: 256 << 10,
            upload_budget_bytes: 16 << 20,
            store_budget_bytes: 16 << 20,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Params {
        Params {
            sizes: vec![3_000, 5_000, 8_000],
            traces: vec!["mu3", "savec"],
            chunk_bytes: 1021,
            upload_budget_bytes: 256 << 10,
            store_budget_bytes: 256 << 10,
        }
    }
}

const FORMATS: [TraceFormat; 3] = [TraceFormat::Din, TraceFormat::ChampSim, TraceFormat::Lackey];

/// One upload body: its text and how many references it holds. The
/// references themselves are dropped once written, so the process's peak
/// memory is the server's and the text's; the checks regenerate them.
struct Body {
    refs: usize,
    format: TraceFormat,
    text: Vec<u8>,
}

/// The references of body `k`, generated from the seed: all `Pid(0)`,
/// which every format carries, so what the server parses is exactly what
/// was generated.
fn body_refs(p: &Params, seed: u64, k: usize, col: Option<&Collector>) -> Vec<MemRef> {
    let size = p.sizes[k];
    let mut spec = catalog::by_name(p.traces[k % p.traces.len()], 1.0).expect("catalog");
    spec.length = size;
    spec.warm_up = 0;
    spec.seed = derive_seed(seed, k as u64);
    let trace = generate(col, &spec);
    trace.refs()[..size.min(trace.len())]
        .iter()
        .map(|r| MemRef::new(r.addr, r.kind, Pid(0)))
        .collect()
}

/// What one upload step answered, kept for the output checks.
struct Step {
    body: usize,
    warm: usize,
    l1_kib: u64,
    digest: Option<String>,
    refs: Option<u64>,
    result: Option<Json>,
    replayed: Option<Json>,
    checked: bool,
}

fn l1_config(size_kib: u64) -> SystemConfig {
    let l1 = CacheConfig::builder(CacheSize::from_kib(size_kib).expect("pow2"))
        .build()
        .expect("valid cache");
    SystemConfig::builder()
        .l1_both(l1)
        .build()
        .expect("valid system")
}

/// Runs the workload.
pub fn run(p: &Params, opts: &RunOptions, col: Option<&Collector>) -> Outcome {
    let host = HostClock::new(1, Coupling::Shared);
    let ((server, mut client, bodies), setup_s, setup_speed, setup_spans) = set_up(col, |col| {
        let bodies: Vec<Body> = (0..p.sizes.len())
            .map(|k| {
                let refs = body_refs(p, opts.seed, k, col);
                let format = FORMATS[k % FORMATS.len()];
                let mut text = Vec::new();
                write_format(&mut text, &refs, format).expect("write to memory");
                Body {
                    refs: refs.len(),
                    format,
                    text,
                }
            })
            .collect();
        let config = loopback();
        let mut app = App::new(p.store_budget_bytes).with_limits(limits_for(&config));
        app.uploads = UploadStore::new(p.upload_budget_bytes);
        let server = Server::boot_app(config, app);
        let client = server.connect();
        (server, client, bodies)
    });

    let all_cts = CYCLE_TIMES_NS.map(|ct| ct.to_string()).join(", ");
    let mut step_no = 0usize;
    let mut pass_no = 0u64;
    let mut steps: Vec<Step> = Vec::new();

    // A pass uploads every body once, always in the same order, so that
    // every pass holds the same memory at the same points; the seed sets
    // the bodies' contents and the L1 size each is priced under.
    let mut pass = |col: Option<&Collector>, phase: &mut Phase, timed: bool| {
        let mut rng = SplitMix64::from_seed(derive_seed(!opts.seed, pass_no));
        pass_no += 1;
        // Work is uploaded references; time is time spent uploading.
        let mut done = Pass {
            work: 0.0,
            wall_s: 0.0,
            latencies_us: Vec::with_capacity(bodies.len()),
        };
        for (k, body) in bodies.iter().enumerate() {
            let warm = step_no;
            let req = 3 * step_no as u64;
            step_no += 1;
            let path = format!(
                "/v1/traces?name=bench&format={}&warm={warm}",
                body.format.name()
            );
            let t = Instant::now();
            let uploaded = {
                let _op = span(col, "op", Some(req));
                client.post_chunked(&path, &body.text, p.chunk_bytes)
            };
            let upload_us = t.elapsed().as_secs_f64() * 1e6;
            let l1_kib = SIZES_KIB[rng.gen_range(0..SIZES_KIB.len())];
            let mut step = Step {
                body: k,
                warm,
                l1_kib,
                digest: None,
                refs: None,
                result: None,
                replayed: None,
                checked: sampled(opts.seed, 0, req),
            };
            let mut ok = 0;
            if let Ok((200, text)) = &uploaded {
                ok += 1;
                let v = Json::parse(text).ok();
                step.digest = v
                    .as_ref()
                    .and_then(|v| v.get("digest")?.as_str().map(str::to_string));
                step.refs = v.as_ref().and_then(|v| v.get("refs")?.as_u64());
            }
            if let Some(digest) = step.digest.clone() {
                let body = format!(
                    r#"{{"config": {{"l1": {{"size_kib": {l1_kib}}}}}, "trace": {{"upload": "{digest}"}}}}"#
                );
                let a = {
                    let _op = span(col, "op", Some(req + 1));
                    post(&mut client, "/v1/simulate", &body)
                };
                let v = a.json().filter(|_| a.ok());
                let key = v
                    .as_ref()
                    .and_then(|v| v.get("key")?.as_str().map(str::to_string));
                step.result = v.as_ref().and_then(|v| v.get("result").cloned());
                if let Some(key) = key {
                    ok += 1;
                    let body = format!(r#"{{"key": "{key}", "cycle_times_ns": [{all_cts}]}}"#);
                    let a = {
                        let _op = span(col, "op", Some(req + 2));
                        post(&mut client, "/v1/replay", &body)
                    };
                    if a.ok() {
                        ok += 1;
                        step.replayed = a.json().and_then(|v| v.get("results").cloned());
                    }
                }
            }
            if let Some(c) = col {
                shadow_upload(c, req, body, p.chunk_bytes, &path);
            }
            if timed {
                phase.attempted += 3;
                phase.failed += 3 - ok;
                done.work += body.refs as f64;
                done.wall_s += upload_us / 1e6;
                done.latencies_us.push(upload_us);
                // Answers are kept only where the results digest or a
                // check reads them, so the benchmark's own memory does
                // not grow with the run.
                if steps.len() >= bodies.len() && !step.checked {
                    step.result = None;
                    step.replayed = None;
                }
                steps.push(step);
            }
        }
        if timed {
            phase.passes[0].push(done);
        }
    };

    pass(None, &mut Phase::default(), false);
    let mut stats = None;
    let (main, traced) = timed_phases(opts, &host, col, |length, col| {
        let mut phase = Phase {
            passes: vec![Vec::new()],
            summary: Summary::PerOperation,
            ..Phase::default()
        };
        if col.is_some() {
            stats = Some(server.stats());
        }
        Rounds::new(&host, 1, length).run(|| pass(col, &mut phase, true));
        phase
    });

    let mut out = Outcome {
        setup_s,
        setup_speed,
        kernel_us: host.samples(),
        tail_q: 0.9,
        main,
        digest: Digest::new(3 * bodies.len() as u64),
        ..Outcome::default()
    };
    for s in &steps {
        out.digest
            .push(s.digest.as_deref().unwrap_or("").as_bytes());
        for part in [&s.result, &s.replayed] {
            out.digest.push(
                part.as_ref()
                    .map_or_else(String::new, Json::to_string)
                    .as_bytes(),
            );
        }
    }
    // Every upload's digest must be the content digest of the generated
    // references; sampled steps are priced in process as well. One body's
    // references are regenerated at a time.
    for k in 0..bodies.len() {
        let refs = body_refs(p, opts.seed, k, None);
        for s in steps.iter().filter(|s| s.body == k) {
            let mut d = UploadDigest::new();
            for &r in &refs {
                d.push(r);
            }
            let want = key_hex(d.finish(s.warm));
            out.checks += 1;
            if s.digest.as_deref() != Some(want.as_str()) || s.refs != Some(refs.len() as u64) {
                out.checks_failed += 1;
                eprintln!(
                    "ingest: upload with warm={} came back as {:?}",
                    s.warm, s.digest
                );
            }
            if s.checked {
                out.checks += 1;
                let trace = Trace::new("bench", refs.clone(), s.warm);
                let want = sim_result_to_json(&simulate(&l1_config(s.l1_kib), &trace));
                let at_40ns = s
                    .replayed
                    .as_ref()
                    .and_then(|r| r.as_array()?.get(5).cloned());
                if s.result.as_ref() != Some(&want) || at_40ns.as_ref() != Some(&want) {
                    out.checks_failed += 1;
                    eprintln!("ingest: a sampled upload priced differently from simulate()");
                }
            }
        }
    }

    if let Some((phase, spans)) = traced {
        let setup = Tree::build(setup_spans);
        let timed = Tree::build(spans);
        common_layers(&setup, &timed, &mut out.layers);
        stats_layers(
            &stats.expect("stats before the traced phase"),
            &server.stats(),
            &mut out.layers,
        );
        let (_, dechunk_ns, bytes) = timed.all_totals("serve.http.dechunk");
        let (_, import_ns, imported) = timed.all_totals("trace.import");
        let (_, interval_ns, _) = timed.all_totals("trace.interval");
        let per = |ns: u64, n: f64| if n == 0.0 { 0.0 } else { ns as f64 / n };
        out.layers.insert(
            "serve.http.dechunk_ns_per_kib".into(),
            per(dechunk_ns, bytes as f64 / 1024.0),
        );
        out.layers
            .insert("trace.import.busy_ms".into(), import_ns as f64 / 1e6);
        out.layers.insert(
            "trace.import.ns_per_ref".into(),
            per(import_ns, imported as f64),
        );
        out.layers
            .insert("trace.interval.busy_ms".into(), interval_ns as f64 / 1e6);
        out.traced = Some(phase);
        out.trees = vec![setup, timed];
    }
    out
}

/// The shadow of one upload: the server's dechunking, import and
/// interval selection, timed on the same bytes.
fn shadow_upload(col: &Collector, req: u64, body: &Body, chunk_bytes: usize, path: &str) {
    let _shadow = col.span("shadow", Some(req));
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nHost: ctserve\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
    )
    .into_bytes();
    for chunk in body.text.chunks(chunk_bytes.max(1)) {
        wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        wire.extend_from_slice(chunk);
        wire.extend_from_slice(b"\r\n");
    }
    wire.extend_from_slice(b"0\r\n\r\n");
    let text = {
        let mut s = col.span("serve.http.dechunk", Some(req));
        s.set_work(body.text.len() as u64);
        match parse_request(&mut wire) {
            Ok(Parsed::Chunked { mut decoder, .. }) => {
                assert!(
                    decoder.feed(&mut wire).expect("valid chunking"),
                    "whole body framed"
                );
                decoder.into_body()
            }
            _ => panic!("the shadow parser did not frame a chunked upload"),
        }
    };
    let refs: Vec<MemRef> = {
        let mut s = col.span("trace.import", Some(req));
        let refs: Vec<MemRef> = ImportIter::new(&text[..], body.format)
            .map(|r| r.expect("the body parses"))
            .collect();
        s.set_work(refs.len() as u64);
        refs
    };
    let trace = Trace::new("bench", refs, 0);
    let _s = col.span("trace.interval", Some(req));
    std::hint::black_box(upload::select_intervals(
        &trace,
        None,
        upload::DEFAULT_PICKS,
    ));
}
