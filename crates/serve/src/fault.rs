//! Deterministic fault injection: a seeded [`FaultPlan`] for server-side
//! fault points, and a seeded chaos client that misbehaves on the wire.
//!
//! Both halves draw from the testkit's SplitMix64, so a chaos run is a
//! pure function of its seed: the same seed injects the same faults in
//! the same per-point order, and a failure reproduces from the seed alone
//! (thread interleaving may reorder *which request* hits a fault, but the
//! per-point decision stream is fixed).
//!
//! # Server-side fault points
//!
//! The server consults its plan (inert by default — a single relaxed
//! atomic load) at six named points:
//!
//! | point | where |
//! |---|---|
//! | `serve.handle` | entry of [`App::try_handle`](crate::App::try_handle), before routing |
//! | `serve.record` | inside the store's recording closure, before the behavioral pass |
//! | `serve.write` | in the event loop, before a response is queued on its connection |
//! | `disk.write` | in the segment store, before a spill touches the disk |
//! | `disk.read` | in the segment store, after a read-through's bytes arrive |
//! | `peer.fetch` | in a rebalance pass, after a peer's segment bytes arrive and before adoption |
//!
//! The disk points (and `peer.fetch`, which reuses their machinery) use
//! [`decide_disk`](FaultPlan::decide_disk), which answers in the disk
//! layer's own [`DiskFault`] instead of a [`FaultAction`]: their failure
//! mode is torn, shortened, or bit-flipped bytes (a crash image recovery
//! — or a segment adoption — must quarantine), not a panic or a delay.
//!
//! A [`FaultAction::Panic`] at `serve.handle` or `serve.record` exercises
//! the panic-isolation path: the worker's `catch_unwind` turns it into a
//! `500` and the pool keeps serving. A [`FaultAction::Delay`] at
//! `serve.record` holds a recording in flight, which is how tests push the
//! server into degraded mode on demand.
//!
//! # Client-side chaos
//!
//! [`run_chaos_client`] drives a running server and, per seeded round,
//! either behaves (simulate / replay / stats / health, each one request
//! on a fresh [`HttpClient`]) or misbehaves: half-written request heads,
//! mid-body disconnects and torn response reads on bare sockets, and
//! garbage bytes and oversized `Content-Length` claims sent through
//! [`HttpClient::send_raw`]. It returns a [`ChaosReport`] and fails fast
//! (with a message) on any *protocol violation* — a well-formed request
//! answered with anything but `200`/`503`, or a malformed one answered
//! with anything but its proper `4xx` or the accept path's canned shed.

use crate::client::{ClientConfig, HttpClient};
use crate::http::QUEUE_FULL_RESPONSE;
use cachetime_disk::DiskFault;
use cachetime_testkit::SplitMix64;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed fault point does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: the point falls through at full speed.
    Proceed,
    /// Sleep for the given duration before proceeding.
    Delay(Duration),
    /// Panic with a recognizable message (`"injected fault panic"`).
    Panic,
}

#[derive(Debug, Clone)]
struct Rule {
    /// Probability a hit panics.
    panic_p: f64,
    /// Probability a hit delays (evaluated after the panic draw misses).
    delay_p: f64,
    /// Delay length: uniform in `[0, max_delay]`.
    max_delay: Duration,
    /// Probability a disk hit is torn/short (disk points only).
    torn_p: f64,
    /// Probability a disk hit is bit-flipped (after the torn draw).
    flip_p: f64,
    /// Probability a disk hit errors outright (after the flip draw).
    error_p: f64,
    /// Remaining faults this rule may inject; `None` = unlimited.
    budget: Option<u64>,
}

impl Rule {
    fn new() -> Self {
        Rule {
            panic_p: 0.0,
            delay_p: 0.0,
            max_delay: Duration::ZERO,
            torn_p: 0.0,
            flip_p: 0.0,
            error_p: 0.0,
            budget: None,
        }
    }
}

struct Point {
    rng: SplitMix64,
    rule: Rule,
}

/// A deterministic, thread-safe fault schedule keyed by named points.
///
/// Points without an armed rule always [`FaultAction::Proceed`]; an
/// entirely inert plan costs one relaxed atomic load per hit, so the
/// production server carries one at zero practical cost.
pub struct FaultPlan {
    seed: u64,
    armed: AtomicBool,
    points: Mutex<HashMap<String, Point>>,
    injected: AtomicU64,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

/// FNV-1a, mixed into the plan seed so each point gets its own stream.
fn point_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// A plan that never injects anything (the production default).
    pub fn inert() -> Self {
        Self::seeded(0)
    }

    /// An empty plan with the given seed; arm points with
    /// [`arm_panic`](Self::arm_panic) / [`arm_delay`](Self::arm_delay).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            armed: AtomicBool::new(false),
            points: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    fn arm(self, point: &str, rule: Rule) -> Self {
        {
            let mut points = self.points.lock().unwrap();
            points.insert(
                point.to_string(),
                Point {
                    rng: SplitMix64::from_seed(self.seed ^ point_hash(point)),
                    rule,
                },
            );
        }
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Arms `point` to panic with probability `p` per hit, at most
    /// `budget` times (`None` = forever).
    pub fn arm_panic(self, point: &str, p: f64, budget: Option<u64>) -> Self {
        self.arm(
            point,
            Rule {
                panic_p: p,
                budget,
                ..Rule::new()
            },
        )
    }

    /// Arms `point` to delay (uniform in `[0, max_delay]`) with
    /// probability `p` per hit, at most `budget` times.
    pub fn arm_delay(self, point: &str, p: f64, max_delay: Duration, budget: Option<u64>) -> Self {
        self.arm(
            point,
            Rule {
                delay_p: p,
                max_delay,
                budget,
                ..Rule::new()
            },
        )
    }

    /// Arms a disk point (`disk.write` / `disk.read`) to tear or shorten
    /// the I/O with probability `torn_p` and to bit-flip it with
    /// probability `flip_p` (drawn after a torn miss), at most `budget`
    /// faults total. Consumed via [`decide_disk`](Self::decide_disk).
    pub fn arm_disk(self, point: &str, torn_p: f64, flip_p: f64, budget: Option<u64>) -> Self {
        self.arm(
            point,
            Rule {
                torn_p,
                flip_p,
                budget,
                ..Rule::new()
            },
        )
    }

    /// Arms a disk point to fail outright with probability `p`.
    pub fn arm_disk_error(self, point: &str, p: f64, budget: Option<u64>) -> Self {
        self.arm(
            point,
            Rule {
                error_p: p,
                budget,
                ..Rule::new()
            },
        )
    }

    /// Arms `point` to panic on exactly its next hit, then disarm.
    pub fn panic_once(self, point: &str) -> Self {
        self.arm_panic(point, 1.0, Some(1))
    }

    /// Decides what `point` does on this hit (consuming fault budget).
    pub fn decide(&self, point: &str) -> FaultAction {
        if !self.armed.load(Ordering::Acquire) {
            return FaultAction::Proceed;
        }
        let mut points = self.points.lock().unwrap();
        let Some(p) = points.get_mut(point) else {
            return FaultAction::Proceed;
        };
        if p.rule.budget == Some(0) {
            return FaultAction::Proceed;
        }
        let action = if p.rule.panic_p > 0.0 && p.rng.gen_bool(p.rule.panic_p) {
            FaultAction::Panic
        } else if p.rule.delay_p > 0.0 && p.rng.gen_bool(p.rule.delay_p) {
            let micros = p.rule.max_delay.as_micros() as u64;
            let d = if micros == 0 {
                Duration::ZERO
            } else {
                Duration::from_micros(p.rng.gen_range(0u64..micros + 1))
            };
            FaultAction::Delay(d)
        } else {
            FaultAction::Proceed
        };
        if action != FaultAction::Proceed {
            if let Some(b) = &mut p.rule.budget {
                *b -= 1;
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        action
    }

    /// Decides what a disk I/O of `len` bytes at `point` (`disk.write`,
    /// `disk.read` or `peer.fetch`) suffers on this hit, consuming fault
    /// budget like [`decide`](Self::decide). The draw order is torn →
    /// bit-flip → error, each evaluated only if the previous missed. A
    /// tear keeps a uniform fraction in `[0, 1)` of the bytes, so it
    /// lands mid-payload (a torn write) or inside the header (a short
    /// one); a flip's offset is reduced modulo the length by the disk
    /// layer.
    pub fn decide_disk(&self, point: &str, len: usize) -> DiskFault {
        if !self.armed.load(Ordering::Acquire) {
            return DiskFault::None;
        }
        let mut points = self.points.lock().unwrap();
        let Some(p) = points.get_mut(point) else {
            return DiskFault::None;
        };
        if p.rule.budget == Some(0) {
            return DiskFault::None;
        }
        let fault = if p.rule.torn_p > 0.0 && p.rng.gen_bool(p.rule.torn_p) {
            DiskFault::Torn {
                keep: (p.rng.next_f64() * len as f64) as usize,
            }
        } else if p.rule.flip_p > 0.0 && p.rng.gen_bool(p.rule.flip_p) {
            DiskFault::BitFlip {
                offset: p.rng.next_u64() as usize,
            }
        } else if p.rule.error_p > 0.0 && p.rng.gen_bool(p.rule.error_p) {
            DiskFault::Error
        } else {
            DiskFault::None
        };
        if fault != DiskFault::None {
            if let Some(b) = &mut p.rule.budget {
                *b -= 1;
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Acts on [`decide`](Self::decide): sleeps on a delay, panics on a
    /// panic. The panic is injected *after* the plan's lock is released,
    /// so a caught unwind never poisons the plan.
    ///
    /// # Panics
    ///
    /// By design, when the point's rule draws [`FaultAction::Panic`].
    pub fn inject(&self, point: &str) {
        match self.decide(point) {
            FaultAction::Proceed => {}
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Panic => panic!("injected fault panic at {point:?}"),
        }
    }

    /// Total faults injected so far (panics + delays).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Seeded chaos client
// ---------------------------------------------------------------------------

/// What one chaos run saw. Counters only — protocol violations abort the
/// run with an error instead of being tallied.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Well-formed requests answered `200`.
    pub ok: u64,
    /// Well-formed requests shed or deadline-bounced (`503`), and probe
    /// or oversize rounds the accept path shed.
    pub shed: u64,
    /// Malformed requests correctly rejected with their `4xx`.
    pub rejected: u64,
    /// Rounds that deliberately broke the connection (half-writes, torn
    /// reads, disconnects, garbage the server may drop silently).
    pub faulted: u64,
    /// Well-formed requests answered `500` by an *injected* panic (the
    /// body carries the recognizable marker). Only legal when the server
    /// runs an armed [`FaultPlan`]; any other `500` is a violation.
    pub panicked: u64,
}

impl ChaosReport {
    /// Folds another thread's report into this one.
    pub fn merge(&mut self, other: &ChaosReport) {
        self.rounds += other.rounds;
        self.ok += other.ok;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.faulted += other.faulted;
        self.panicked += other.panicked;
    }
}

/// Whether a `500` body is the transport's injected-panic conversion —
/// the one `500` a chaos run must tolerate (and count) rather than flag.
fn is_injected_panic(status: u16, body: &str) -> bool {
    status == 500 && body.contains("panic")
}

/// Whether an answer is the accept path's canned shed, status and body
/// exactly ([`QUEUE_FULL_RESPONSE`]). It is written before a byte of the
/// request is read, so a round of any kind may meet it; any other `503`
/// still means what its round says.
fn is_accept_shed(status: u16, body: &[u8]) -> bool {
    status == 503
        && QUEUE_FULL_RESPONSE
            .strip_suffix(body)
            .is_some_and(|head| head.ends_with(b"\r\n\r\n"))
}

/// The paper's 11-point per-cache size axis (2 KB – 2 MB), as served.
pub const GRID_SIZES_KIB: [u64; 11] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// The paper's 16-point cycle-time axis.
pub const GRID_CYCLE_TIMES_NS: [u32; 16] = [
    20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80,
];

/// The simulate body for one 11×16 grid cell at `scale` (trace `mu3`).
pub fn grid_body(size_kib: u64, ct_ns: u32, scale: f64) -> String {
    format!(
        r#"{{"config": {{"cycle_time_ns": {ct_ns}, "l1": {{"size_kib": {size_kib}}}}}, "trace": {{"name": "mu3", "scale": {scale}}}}}"#
    )
}

/// Every chaos connection's read timeout: a round the server never
/// answers fails the run instead of hanging it.
const CHAOS_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A fresh client with no retries, so each round it serves is exactly one
/// request on its own connection; chaos rounds break connections on
/// purpose, so nothing is pooled.
fn chaos_client(addr: &str) -> std::io::Result<HttpClient> {
    HttpClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: CHAOS_READ_TIMEOUT,
            retries: 0,
            ..ClientConfig::default()
        },
    )
}

/// Extracts `"key": "<hex>"` from a simulate response without a JSON
/// parser (the chaos client stays deliberately dumb about bodies).
fn extract_key(body: &str) -> Option<String> {
    let at = body.find("\"key\"")?;
    let rest = &body[at + 5..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// Runs `rounds` seeded chaos rounds against the server at `addr`.
///
/// Grid cells come from the 11×16 paper grid at `scale`. Well-formed
/// requests must answer `200` (or `503` when the server sheds, or the
/// recognizable injected-panic `500` when the server runs an armed
/// [`FaultPlan`]); malformed ones must answer their proper `4xx` or see
/// the connection closed. A probe or an oversize claim may also meet the
/// accept path's canned shed.
///
/// # Errors
///
/// A human-readable protocol violation (the server answered something it
/// never should), or an I/O error dialing the server for a *well-formed*
/// round — misbehaving rounds swallow I/O errors, they are the point.
pub fn run_chaos_client(
    addr: &str,
    seed: u64,
    scale: f64,
    rounds: usize,
) -> Result<ChaosReport, String> {
    let mut rng = SplitMix64::from_seed(seed);
    let mut report = ChaosReport::default();
    let mut keys: Vec<String> = Vec::new();
    let cells = GRID_SIZES_KIB.len() * GRID_CYCLE_TIMES_NS.len();

    for round in 0..rounds {
        report.rounds += 1;
        // Walk the grid in round order so every thread covers all 176
        // cells across its run; the *action* per cell is the seeded draw.
        let cell = round % cells;
        let size_kib = GRID_SIZES_KIB[cell / GRID_CYCLE_TIMES_NS.len()];
        let ct_ns = GRID_CYCLE_TIMES_NS[cell % GRID_CYCLE_TIMES_NS.len()];
        let body = grid_body(size_kib, ct_ns, scale);

        match rng.gen_range(0u32..10) {
            // 0–3: well-formed simulate (the bulk of the traffic).
            0..=3 => {
                let (status, resp) = chaos_client(addr)
                    .and_then(|mut c| c.post("/v1/simulate", &body))
                    .map_err(|e| format!("simulate round {round}: {e}"))?;
                match status {
                    200 => {
                        report.ok += 1;
                        if let Some(k) = extract_key(&resp) {
                            if !keys.contains(&k) {
                                keys.push(k);
                            }
                        }
                    }
                    503 => report.shed += 1,
                    s if is_injected_panic(s, &resp) => report.panicked += 1,
                    other => {
                        return Err(format!(
                            "simulate round {round}: well-formed request answered {other}: {resp}"
                        ))
                    }
                }
            }
            // 4: well-formed replay of a key we hold.
            4 => {
                let Some(k) = keys.get(rng.gen_range(0usize..keys.len().max(1))) else {
                    continue;
                };
                let rbody = format!(r#"{{"key": "{k}", "cycle_times_ns": [{ct_ns}]}}"#);
                let (status, resp) = chaos_client(addr)
                    .and_then(|mut c| c.post("/v1/replay", &rbody))
                    .map_err(|e| format!("replay round {round}: {e}"))?;
                match status {
                    200 => report.ok += 1,
                    503 => report.shed += 1,
                    // The key may have been evicted under a tight budget.
                    404 => report.rejected += 1,
                    s if is_injected_panic(s, &resp) => report.panicked += 1,
                    other => {
                        return Err(format!(
                            "replay round {round}: well-formed replay answered {other}: {resp}"
                        ))
                    }
                }
            }
            // 5: health/stats probes.
            5 => {
                let path = if rng.gen_bool(0.5) {
                    "/healthz"
                } else {
                    "/v1/stats"
                };
                let (status, resp) = chaos_client(addr)
                    .and_then(|mut c| c.get(path))
                    .map_err(|e| format!("probe round {round}: {e}"))?;
                if is_injected_panic(status, &resp) {
                    report.panicked += 1;
                } else if is_accept_shed(status, resp.as_bytes()) {
                    report.shed += 1;
                } else if status != 200 {
                    return Err(format!(
                        "probe round {round}: {path} answered {status}: {resp}"
                    ));
                } else {
                    report.ok += 1;
                }
            }
            // 6: half-written head, then hang up.
            6 => {
                report.faulted += 1;
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let head = format!(
                        "POST /v1/simulate HTTP/1.1\r\nContent-Length: {}\r\n",
                        body.len()
                    );
                    let cut = rng.gen_range(1usize..head.len());
                    let _ = s.write_all(&head.as_bytes()[..cut]);
                    // Drop: the server must time the torso out or reap the
                    // closed socket, never park a worker.
                }
            }
            // 7: full head, mid-body disconnect.
            7 => {
                report.faulted += 1;
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let head = format!(
                        "POST /v1/simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    );
                    let cut = rng.gen_range(0usize..body.len());
                    let _ = s.write_all(head.as_bytes());
                    let _ = s.write_all(&body.as_bytes()[..cut]);
                }
            }
            // 8: torn read — send a valid request, read a few bytes of the
            // response, vanish. The server's write must not wedge.
            8 => {
                report.faulted += 1;
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.set_read_timeout(Some(CHAOS_READ_TIMEOUT));
                    if s.write_all(b"GET /v1/stats HTTP/1.1\r\nHost: chaos\r\n\r\n")
                        .is_ok()
                    {
                        let mut tiny = [0u8; 3];
                        let _ = s.read(&mut tiny);
                    }
                }
            }
            // 9: malformed on purpose — garbage bytes or an oversized
            // Content-Length claim. Expect the proper 4xx (or a drop).
            _ => {
                if rng.gen_bool(0.5) {
                    let mut garbage = vec![0u8; rng.gen_range(1usize..512)];
                    rng.fill(&mut garbage);
                    garbage.extend_from_slice(b"\r\n\r\n");
                    report.faulted += 1;
                    // Any answer (400/431) or a close is acceptable for
                    // arbitrary bytes; never a hang (the read timeout guards).
                    if let Ok(mut c) = chaos_client(addr) {
                        let _ = c.send_raw(&garbage);
                    }
                } else {
                    let mut c =
                        chaos_client(addr).map_err(|e| format!("oversize round {round}: {e}"))?;
                    let head = b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
                    match c.send_raw(head) {
                        Ok((413, _)) => report.rejected += 1,
                        Ok((s, resp)) if is_accept_shed(s, &resp) => report.shed += 1,
                        Ok((other, resp)) => {
                            return Err(format!(
                                "oversize round {round}: expected 413, got {other}: {}",
                                String::from_utf8_lossy(&resp)
                            ))
                        }
                        // The server may also just drop us.
                        Err(_) => report.faulted += 1,
                    }
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plans_always_proceed() {
        let plan = FaultPlan::inert();
        for _ in 0..100 {
            assert_eq!(plan.decide("serve.handle"), FaultAction::Proceed);
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn only_the_accept_paths_canned_shed_is_an_accept_shed() {
        let body = b"{\"error\":\"connection shed\"}\r\n";
        assert!(is_accept_shed(503, body));
        assert!(!is_accept_shed(413, body));
        assert!(!is_accept_shed(503, b""));
        assert!(!is_accept_shed(503, b"\r\n"));
        // The app's own load-shedding 503 is not the accept path's.
        let busy = crate::Response::unavailable("busy");
        assert!(!is_accept_shed(503, &busy.body));
        assert!(!is_accept_shed(503, &QUEUE_FULL_RESPONSE[9..]));
    }

    #[test]
    fn panic_once_fires_exactly_once() {
        let plan = FaultPlan::seeded(7).panic_once("serve.handle");
        assert_eq!(plan.decide("serve.handle"), FaultAction::Panic);
        for _ in 0..50 {
            assert_eq!(plan.decide("serve.handle"), FaultAction::Proceed);
        }
        assert_eq!(plan.injected(), 1);
        // Unarmed points are untouched.
        assert_eq!(plan.decide("serve.record"), FaultAction::Proceed);
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<FaultAction> {
            let plan = FaultPlan::seeded(seed).arm_delay("p", 0.5, Duration::from_millis(2), None);
            (0..64).map(|_| plan.decide("p")).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds must differ");
        let mixed = run(42).iter().any(|a| matches!(a, FaultAction::Delay(_)))
            && run(42).contains(&FaultAction::Proceed);
        assert!(mixed, "p=0.5 over 64 draws must mix actions");
    }

    #[test]
    fn inject_panics_with_a_recognizable_message() {
        let plan = FaultPlan::seeded(1).panic_once("boom");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.inject("boom")))
            .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault panic"), "{msg}");
        // The plan survives its own panic (no poisoned lock).
        assert_eq!(plan.decide("boom"), FaultAction::Proceed);
    }

    #[test]
    fn budgets_cap_total_injections() {
        let plan = FaultPlan::seeded(3).arm_delay("p", 1.0, Duration::ZERO, Some(3));
        let delays = (0..10)
            .filter(|_| matches!(plan.decide("p"), FaultAction::Delay(_)))
            .count();
        assert_eq!(delays, 3);
    }

    #[test]
    fn key_extraction_is_tolerant() {
        assert_eq!(
            extract_key(r#"{"key": "00ff00ff00ff00ff", "cached": true}"#).as_deref(),
            Some("00ff00ff00ff00ff")
        );
        assert_eq!(extract_key("{}"), None);
    }
}
